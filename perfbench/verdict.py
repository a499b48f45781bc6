"""The verdict gate: per-function diagnostic codes against the known
answer.

The checker's rendered report (the ``vaultc check`` output, which the
daemon sends back verbatim) has one header line per diagnostic::

    <file>:<line>:<col>: error [V0302] ...

Each diagnostic is charged to the top-level declaration whose first
line is the last one at or before the diagnostic's line.
"""

from __future__ import annotations

import bisect
import re
from typing import Dict, List, Sequence, Tuple

_HEADER = re.compile(r"^.*?:(\d+):\d+: (?:error|warning) \[(V\d+)\]",
                     re.MULTILINE)

#: the name diagnostics before the first declaration are charged to.
PRELUDE = "<prelude>"


def codes_by_function(render: str, decls: Sequence[Tuple[int, str]]
                      ) -> Dict[str, List[str]]:
    """Sorted codes per declaration name, for every diagnostic in
    ``render``."""
    starts = [line for line, _name in decls]
    found: Dict[str, List[str]] = {}
    for match in _HEADER.finditer(render):
        line, code = int(match.group(1)), match.group(2)
        at = bisect.bisect_right(starts, line) - 1
        name = decls[at][1] if at >= 0 else PRELUDE
        found.setdefault(name, []).append(code)
    for codes in found.values():
        codes.sort()
    return found


def mismatches(render: str, decls: Sequence[Tuple[int, str]],
               expect: Dict[str, List[str]]
               ) -> List[Tuple[str, List[str], List[str]]]:
    """``(function, expected, got)`` for every function whose codes
    differ from the answer, including diagnostics charged to names
    the answer does not list."""
    got = codes_by_function(render, decls)
    wrong = []
    for name in sorted(set(expect) | set(got)):
        want = expect.get(name, [])
        have = got.get(name, [])
        if want != have:
            wrong.append((name, want, have))
    return wrong
