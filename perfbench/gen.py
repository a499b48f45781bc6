"""Seeded input generators and the frozen paper corpus.

Every workload input is a :class:`Unit`: the text handed to the
checker, the line on which each top-level declaration starts, and the
known answer -- the sorted diagnostic codes each function must get.
Everything here is a pure function of its arguments (``random.Random``
seeded with a string, which Python hashes with SHA-512, so the result
does not depend on ``PYTHONHASHSEED``).  Nothing is imported from the
package under test: a later change to ``src/`` cannot change a
workload or its answers.

Region units follow the paper's Figure 2 protocol (create a region,
allocate into it, delete it).  A seeded bug gives a known code:

=============  =================================
bug            code
=============  =================================
``leak``       V0302 (key left in the held set)
``dangle``     V0300 (access after delete)
``double``     V0303 (delete of a consumed key)
=============  =================================

Protocol units declare random keyed state machines and clients with a
recorded intent; ``INTENT_CODES`` gives each intent's codes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from verdict import codes_by_function

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

#: region bug kind -> the codes its function must get.
BUG_CODES = {"ok": [], "leak": ["V0302"], "dangle": ["V0300"],
             "double": ["V0303"]}

#: protocol client intent -> the codes its function must get.
#: A ``wrong_state`` client stops after its bad call, so it also leaks
#: the handle; ``use_after_drop`` calls an operation whose effect
#: clause needs the consumed key (V0303), not a guarded field access
#: (V0300).
INTENT_CODES = {"ok": [], "leak": ["V0302"],
                "wrong_state": ["V0301", "V0302"],
                "double_drop": ["V0303"], "use_after_drop": ["V0303"]}


@dataclass
class Unit:
    """One compilation unit plus its known answer."""

    filename: str
    text: str
    #: ``(first line, name)`` of every top-level declaration, by line;
    #: non-function declarations are named ``<decl>``.
    decls: List[Tuple[int, str]]
    #: function name -> sorted diagnostic codes it must get.
    expect: Dict[str, List[str]]
    #: edit anchors: name -> line number (1-based) the edits rewrite.
    anchors: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"filename": self.filename, "text": self.text,
                "decls": self.decls, "expect": self.expect,
                "anchors": self.anchors}

    @staticmethod
    def from_json(obj: dict) -> "Unit":
        return Unit(obj["filename"], obj["text"],
                    [tuple(d) for d in obj["decls"]], obj["expect"],
                    obj.get("anchors", {}))


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


class _Lines:
    """A text accumulator that tracks declaration start lines."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.decls: List[Tuple[int, str]] = []

    def decl(self, name: str) -> None:
        self.decls.append((len(self.lines) + 1, name))

    def add(self, line: str) -> int:
        self.lines.append(line)
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# Region-worker units
# ---------------------------------------------------------------------------

#: share of an edit unit's workers that call a helper.
HELPER_SHARE = 0.5
#: share of the worker bodies ``rebuild_edit`` edits.
REBUILD_EDIT_SHARE = 0.25


def region_unit(filename: str, n_functions: int, seed: int,
                bug_share: float = 0.05, helpers: int = 0) -> Unit:
    """``n_functions`` region workers; ``round(bug_share * n)`` of them,
    drawn by the seed, carry a leak, dangling-access or double-delete
    bug.  With ``helpers`` > 0 the unit starts with helper functions
    whose effect clause ``[R]`` needs the caller's region key, and
    about ``HELPER_SHARE`` of the workers call one of them, so each
    helper's summary has dependents."""
    rng = _rng(seed, f"region:{filename}:{n_functions}")
    n_bugs = round(bug_share * n_functions)
    buggy = set(rng.sample(range(n_functions), n_bugs))
    out = _Lines()
    out.decl("<decl>")
    out.add("struct cell { int value; int extra; }")
    out.add("")
    expect: Dict[str, List[str]] = {}
    anchors: Dict[str, int] = {}
    for h in range(helpers):
        name = f"helper_{h}"
        out.decl(name)
        anchors[name] = out.add(
            f"int {name}(tracked(R) region rgn, int v) [R] {{")
        anchors[name + ".use"] = out.add(
            f"    R:cell t = new(rgn) cell {{ value = v; "
            f"extra = {rng.randint(1, 9)}; }};")
        out.add("    return t.value + t.extra;")
        out.add("}")
        out.add("")
        expect[name] = []
    for i in range(n_functions):
        kind = rng.choice(("leak", "dangle", "double")) \
            if i in buggy else "ok"
        name = f"worker_{i}"
        out.decl(name)
        out.add(f"int {name}(int input) {{")
        out.add("    tracked(R) region rgn = Region.create();")
        out.add("    R:cell c = new(rgn) cell { value = input; extra = 0; };")
        anchors[name] = out.add(f"    c.value += {rng.randint(1, 9)};")
        for _ in range(rng.randint(0, 3)):
            out.add(f"    c.value += {rng.randint(1, 9)};")
        shape = rng.random()
        if shape < 0.5:
            out.add(f"    if (c.value > {rng.randint(5, 15)}) {{")
            out.add("        c.extra = c.value * 2;")
            out.add("    } else {")
            out.add("        c.extra = c.value - 1;")
            out.add("    }")
        elif shape < 0.75:
            out.add("    int i = 0;")
            out.add(f"    while (i < {rng.randint(2, 5)}) {{")
            out.add("        c.extra += i;")
            out.add("        i++;")
            out.add("    }")
        out.add("    int result = c.value + c.extra;")
        if helpers and rng.random() < HELPER_SHARE:
            out.add(f"    result = result + "
                    f"helper_{rng.randrange(helpers)}(rgn, c.value);")
        if kind == "dangle":
            out.add("    Region.delete(rgn);")
            out.add("    result = result + c.value;")
        elif kind == "double":
            out.add("    Region.delete(rgn);")
            out.add("    Region.delete(rgn);")
        elif kind == "ok":
            out.add("    Region.delete(rgn);")
        out.add("    return result;")
        out.add("}")
        out.add("")
        expect[name] = list(BUG_CODES[kind])
    return Unit(filename, out.text(), out.decls, expect, anchors)


def _replace_line(text: str, line_no: int, new_line: str) -> str:
    lines = text.split("\n")
    lines[line_no - 1] = new_line
    return "\n".join(lines)


def body_edit(unit: Unit, text: str, worker: str, value: int) -> str:
    """``text`` with ``worker``'s first ``c.value += K`` set to
    ``value``: a body edit that keeps the function's verdict."""
    return _replace_line(text, unit.anchors[worker],
                         f"    c.value += {value};")


def helper_edit(unit: Unit, text: str, helper: str, suffix: int) -> str:
    """``text`` with ``helper``'s parameter renamed: an interface
    (header) edit that keeps every verdict."""
    param = f"v{suffix}"
    header = unit.text.split("\n")[unit.anchors[helper] - 1]
    use = unit.text.split("\n")[unit.anchors[helper + ".use"] - 1]
    text = _replace_line(text, unit.anchors[helper],
                         header.replace("int v)", f"int {param})"))
    return _replace_line(text, unit.anchors[helper + ".use"],
                         use.replace("value = v;", f"value = {param};"))


def rebuild_edit(unit: Unit, seed: int) -> str:
    """The base with a seeded ``REBUILD_EDIT_SHARE`` of the worker
    bodies edited."""
    rng = _rng(seed, f"rebuild:{unit.filename}")
    workers = sorted(n for n in unit.expect if n.startswith("worker_"))
    text = unit.text
    n_edits = round(REBUILD_EDIT_SHARE * len(workers))
    for name in rng.sample(workers, n_edits):
        text = body_edit(unit, text, name, rng.randint(10, 99))
    return text


def appended_edit(unit: Unit, serial: int) -> Tuple[str, str, int]:
    """A one-line edit that appends a fresh clean function; returns
    ``(text, function name, its line)``."""
    name = f"bench_edit_{serial}"
    base = unit.text if unit.text.endswith("\n") else unit.text + "\n"
    line = base.count("\n") + 1
    return (base + f"int {name}(int x) {{ return x + {serial % 97}; }}\n",
            name, line)


# ---------------------------------------------------------------------------
# Keyed-state-machine client units
# ---------------------------------------------------------------------------

def _path(edges: Sequence[Tuple[int, int]], frm: int, to: int
          ) -> List[Tuple[int, int]]:
    """Shortest transition path (breadth first; the backbone chain
    guarantees one whenever ``frm <= to``)."""
    prev = {frm: frm}
    frontier = [frm]
    while frontier and to not in prev:
        nxt = []
        for cur in frontier:
            for a, b in edges:
                if a == cur and b not in prev:
                    prev[b] = a
                    nxt.append(b)
        frontier = nxt
    hops = []
    cur = to
    while cur != frm:
        hops.append((prev[cur], cur))
        cur = prev[cur]
    return hops[::-1]


def protocol_unit(filename: str, seed: int, n_protocols: int = 2,
                  n_clients: int = 6) -> Unit:
    """Random keyed state machines (interfaces over an ``extern
    module``) and client functions, each with a recorded intent from
    ``INTENT_CODES``; about half the clients are adversarial."""
    rng = _rng(seed, f"protocol:{filename}")
    out = _Lines()
    specs = []
    for p in range(n_protocols):
        n = rng.randint(3, 6)
        edges = [(i, i + 1) for i in range(n - 1)]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and (a, b) not in edges:
                edges.append((a, b))
        observers = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        module, res = f"Dev{p}", f"dev{p}_res"
        out.decl("<decl>")
        out.add(f"interface DEV{p}_SIG {{")
        out.add(f"    type {res};")
        out.add(f"    tracked(@q0) {res} acquire(int tag);")
        for a, b in edges:
            out.add(f"    void go_{a}_{b}(tracked(K) {res} r) "
                    f"[K@q{a}->q{b}];")
        for a in observers:
            out.add(f"    int peek_{a}(tracked(K) {res} r) [K@q{a}];")
        out.add(f"    void drop(tracked(K) {res} r) [-K@q{n - 1}];")
        out.add("}")
        out.decl("<decl>")
        out.add(f"extern module {module} : DEV{p}_SIG;")
        out.add("")
        specs.append((module, res, n, edges, observers))
    expect: Dict[str, List[str]] = {}
    intents = sorted(INTENT_CODES)
    for c in range(n_clients):
        intent = rng.choice(intents) if rng.random() < 0.5 else "ok"
        module, res, n, edges, observers = rng.choice(specs)
        name = f"client_{c}_{intent}"
        out.decl(name)
        out.add(f"int {name}(int x) {{")
        out.add("    int acc = x;")
        out.add(f"    tracked(K) {res} h = {module}.acquire(x);")

        def walk(frm: int, to: int) -> None:
            for a, b in _path(edges, frm, to):
                if a in observers and rng.random() < 0.5:
                    out.add(f"    acc = acc + {module}.peek_{a}(h);")
                out.add(f"    {module}.go_{a}_{b}(h);")
                if rng.random() < 0.3:
                    out.add(f"    if (acc > {rng.randint(0, 9)}) {{")
                    out.add(f"        acc = acc + {rng.randint(1, 5)};")
                    out.add("    } else {")
                    out.add(f"        acc = acc - {rng.randint(1, 5)};")
                    out.add("    }")

        if intent == "leak":
            walk(0, rng.randrange(n))
        elif intent == "wrong_state":
            mid = rng.randrange(n - 1)
            walk(0, mid)
            a, b = rng.choice([e for e in edges if e[0] != mid])
            out.add(f"    {module}.go_{a}_{b}(h);")
        else:
            walk(0, n - 1)
            out.add(f"    {module}.drop(h);")
            if intent == "double_drop":
                out.add(f"    {module}.drop(h);")
            elif intent == "use_after_drop":
                out.add(f"    acc = acc + {module}.peek_{observers[0]}(h);")
        out.add("    return acc;")
        out.add("}")
        out.add("")
        expect[name] = list(INTENT_CODES[intent])
    return Unit(filename, out.text(), out.decls, expect)


# ---------------------------------------------------------------------------
# The frozen paper corpus
# ---------------------------------------------------------------------------

#: frozen copies of the paper's programs and the scenario demos.
PAPER_UNITS = ("floppy.vlt", "crypt.vlt", "protocol_gallery.vlt",
               "iterator_demo.vlt", "channel_demo.vlt", "stack_demo.vlt",
               "region_demo.vlt")


def paper_units() -> List[Unit]:
    """The frozen paper corpus; each function's known answer is read
    off the unit's frozen golden output (see ``freeze.py``)."""
    with open(os.path.join(DATA_DIR, "decls.json"),
              encoding="utf-8") as handle:
        tables = json.load(handle)
    units = []
    for name in PAPER_UNITS:
        texts = []
        for path in (name, name + ".golden"):
            with open(os.path.join(DATA_DIR, path),
                      encoding="utf-8") as handle:
                texts.append(handle.read())
        decls = [tuple(d) for d in tables[name]["decls"]]
        found = codes_by_function(texts[1], decls)
        expect = {fn: found.get(fn, []) for _line, fn in decls
                  if fn != "<decl>"}
        units.append(Unit(f"paper/{name}", texts[0], decls, expect))
    return units


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

COLD_FUNCTIONS = 1280
EDIT_FUNCTIONS = 640
EDIT_HELPERS = 16
DAEMON_UNITS = 128


def cold_unit(seed: int) -> Unit:
    return region_unit("cold.vlt", COLD_FUNCTIONS, seed)


def edit_unit(seed: int) -> Unit:
    return region_unit("edit.vlt", EDIT_FUNCTIONS, seed,
                       helpers=EDIT_HELPERS)


def warmup_unit() -> Unit:
    """The small fixed unit every child checks before timing starts."""
    return region_unit("warmup.vlt", 8, 0, bug_share=0.25, helpers=1)


def daemon_units(seed: int) -> List[Unit]:
    """``DAEMON_UNITS`` distinct units: the frozen paper corpus plus
    seeded small region and protocol units, alternating.  Unit sizes
    follow a fixed ladder (region units of 6..24 functions, protocol
    units of 1..3 machines and 3..8 clients) and only the contents
    come from the seed, so every seed gives the same mix of sizes."""
    rng = _rng(seed, "daemon")
    units = paper_units()
    k = 0
    while len(units) < DAEMON_UNITS:
        step = k // 2
        if k % 2 == 0:
            units.append(region_unit(f"region_{k}.vlt", 6 + step % 19,
                                     rng.randrange(1 << 30), bug_share=0.1))
        else:
            units.append(protocol_unit(f"protocol_{k}.vlt",
                                       rng.randrange(1 << 30),
                                       n_protocols=1 + step % 3,
                                       n_clients=3 + step % 6))
        k += 1
    return units


def digest(units: Sequence[Unit], *extra: str) -> str:
    """SHA-256 over every input text and answer table (and ``extra``
    strings, such as edit scripts)."""
    h = hashlib.sha256()
    for unit in units:
        h.update(json.dumps(unit.to_json(), sort_keys=True).encode())
    for item in extra:
        h.update(item.encode())
    return h.hexdigest()
