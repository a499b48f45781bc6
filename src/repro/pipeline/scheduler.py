"""Cost-model scheduling for parallel function checking.

Fanning uncached functions out to worker processes only pays off when
the work outweighs the fan-out overhead, and only balances when the
batches carry comparable work.  This module owns both decisions:

* :func:`estimate_cost` — a static per-function cost estimate from the
  definition's AST shape (statement count, branch count, loop nesting);
  flow-checking cost grows with exactly those: every statement runs a
  transfer function, every branch forces a clone + join, every loop
  body is re-analysed up to ``MAX_LOOP_ITERATIONS`` times.
* :func:`plan` — packs functions into one balanced batch per worker
  (LPT bin-packing over estimated or previously *recorded* costs) and
  decides whether parallelism is worth it at all: below the break-even
  point the plan says "serial", so ``--jobs N`` is never slower than
  ``--jobs 1`` on small workloads.
* :func:`resolve_jobs` — turns a ``--jobs`` spec (``"auto"``, ``0`` or
  an explicit count) into a worker count for this machine.

Recorded costs (wall-clock seconds from a previous check of the same
function, persisted in the summary cache) take precedence over the
static estimate when available; the estimate is only the cold-start
fallback.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.checker import MAX_LOOP_ITERATIONS
from ..syntax import ast

#: Estimated seconds of flow-checking per cost unit (one straight-line
#: statement).  Calibrated on the synthetic region-protocol corpus:
#: ~0.4 ms per ~10-statement function.
SECONDS_PER_UNIT = 4e-5

#: Total estimated seconds below which forking is not worth it.  A
#: fork + pipe round-trip costs a few milliseconds per worker; 50 ms
#: of checking is comfortably past that on any machine we target.
BREAK_EVEN_SECONDS = 0.05

#: Headroom multiplier over a batch's estimated cost before the
#: supervisor's watchdog presumes the worker hung.  Deliberately
#: generous: the static estimate is rough, and a false kill costs a
#: respawn + retry, whereas a missed hang only delays by the floor.
TIMEOUT_COST_MULTIPLIER = 25.0

#: Floor (seconds) under every batch deadline — ``vaultc check
#: --batch-timeout`` overrides it.  High enough that no honest batch
#: on the slowest CI box comes near it.
DEFAULT_BATCH_TIMEOUT = 30.0

_BRANCH_UNITS = 4.0    # clone + join at the merge point
_CALL_UNITS = 1.5      # signature instantiation + effect application


_CALL_CLASSES = frozenset((ast.Call, ast.CtorApp, ast.New))

#: per-class field-name tuples for expression nodes (``None`` for
#: anything that is not an expression dataclass) — one dict probe per
#: visited node instead of the isinstance chain this replaces.
_EXPR_FIELDS: Dict[type, Optional[Tuple[str, ...]]] = {}


def _expr_field_names(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _EXPR_FIELDS[cls]
    except KeyError:
        names = tuple(f.name for f in dataclasses.fields(cls)
                      if f.name != "span") \
            if (isinstance(cls, type) and issubclass(cls, ast.Expr)
                and dataclasses.is_dataclass(cls)) else None
        _EXPR_FIELDS[cls] = names
        return names


def _expr_units(expr: ast.Expr) -> float:
    """Calls dominate expression cost; everything else is noise."""
    units = 0.0
    stack: List[object] = [expr]
    push = stack.append
    while stack:
        node = stack.pop()
        cls = node.__class__
        fields = _EXPR_FIELDS.get(cls)
        if fields is None and cls not in _EXPR_FIELDS:
            fields = _expr_field_names(cls)
        if fields is not None:
            if cls in _CALL_CLASSES:
                units += _CALL_UNITS
            for name in fields:
                push(getattr(node, name))
        elif cls is list or cls is tuple:
            stack.extend(node)
    return units


def _stmt_units(stmt: ast.Stmt) -> float:
    units = 1.0
    if isinstance(stmt, ast.Block):
        return sum(_stmt_units(s) for s in stmt.stmts)
    if isinstance(stmt, ast.If):
        units += _BRANCH_UNITS + _expr_units(stmt.cond)
        units += _stmt_units(stmt.then)
        if stmt.orelse is not None:
            units += _stmt_units(stmt.orelse)
        return units
    if isinstance(stmt, ast.While):
        # The checker re-analyses loop bodies to a bounded fixpoint.
        body = _BRANCH_UNITS + _expr_units(stmt.cond) + _stmt_units(stmt.body)
        return units + body * MAX_LOOP_ITERATIONS
    if isinstance(stmt, ast.Switch):
        units += _BRANCH_UNITS * max(1, len(stmt.cases))
        units += _expr_units(stmt.scrutinee)
        for case in stmt.cases:
            units += sum(_stmt_units(s) for s in case.body)
        return units
    if isinstance(stmt, ast.LocalFun):
        return units + _fun_units(stmt.fundef)
    for name in getattr(stmt, "__dataclass_fields__", ()):
        if name == "span":
            continue
        value = getattr(stmt, name)
        if isinstance(value, ast.Expr):
            units += _expr_units(value)
    return units


def _fun_units(fundef: ast.FunDef) -> float:
    return 2.0 + _stmt_units(fundef.body)


def estimate_cost(fundef: ast.FunDef) -> float:
    """Estimated flow-checking seconds for one definition (memoised on
    the AST node — the chunk cache reuses FunDef objects across
    checks)."""
    cached = fundef.__dict__.get("_pl_cost")
    if cached is None:
        cached = _fun_units(fundef) * SECONDS_PER_UNIT
        object.__setattr__(fundef, "_pl_cost", cached)
    return cached


def resolve_jobs(spec: Union[int, str, None]) -> int:
    """Turn a ``--jobs`` spec into a concrete worker count.

    ``"auto"``, ``0`` and ``None`` mean "one worker per available
    CPU" — the CPUs this process may actually run on, not the machine
    total (they differ under cgroup/affinity limits).
    """
    if spec is None:
        return available_cpus()
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in ("auto", ""):
            return available_cpus()
        spec = int(text)
    if spec <= 0:
        return available_cpus()
    return int(spec)


def batch_deadline(est_cost: Optional[float],
                   floor: float = DEFAULT_BATCH_TIMEOUT) -> float:
    """Seconds a worker may spend on one batch before the watchdog
    SIGKILLs and respawns it.

    Derived from the same cost model that sized the batch (recorded
    wall-clock costs when available, the static estimate otherwise),
    scaled by :data:`TIMEOUT_COST_MULTIPLIER` and clamped to ``floor``.
    """
    cost = float(est_cost) if est_cost and est_cost > 0 else 0.0
    return max(float(floor), cost * TIMEOUT_COST_MULTIPLIER)


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass
class Plan:
    """The scheduler's verdict for one batch of uncached functions.

    ``batches`` holds indices into the caller's work list, one batch
    per worker, each batch in ascending (original) index order so a
    worker checks its share in deterministic order.
    """

    parallel: bool
    batches: List[List[int]] = field(default_factory=list)
    batch_costs: List[float] = field(default_factory=list)
    total_cost: float = 0.0
    reason: str = ""

    def describe(self) -> str:
        if not self.parallel:
            return f"serial ({self.reason})"
        loads = ", ".join(f"{c * 1000:.1f}ms" for c in self.batch_costs)
        return (f"{len(self.batches)} workers, est. "
                f"{self.total_cost * 1000:.1f}ms total [{loads}]")


def plan(items: Sequence[Tuple[str, ast.FunDef]],
         jobs: int,
         recorded_costs: Optional[Dict[str, float]] = None,
         break_even_seconds: float = BREAK_EVEN_SECONDS) -> Plan:
    """Pack ``(qual, fundef)`` work items into balanced worker batches.

    Longest-processing-time bin-packing: sort by descending cost, give
    each item to the least-loaded worker.  LPT is within 4/3 of the
    optimal makespan, which is far tighter than the naive contiguous
    split when costs are skewed (one pathological function no longer
    drags a whole contiguous slice with it).  A single worker (or a
    single item) needs no costs at all: that plan returns before the
    cost model runs, with ``total_cost`` left at 0.
    """
    jobs = min(jobs, len(items))
    if jobs < 2:
        return Plan(parallel=False, reason="single worker")
    costs: List[float] = []
    for qual, fundef in items:
        recorded = recorded_costs.get(qual) if recorded_costs else None
        costs.append(recorded if recorded is not None
                     else estimate_cost(fundef))
    total = sum(costs)
    if total < break_even_seconds:
        return Plan(parallel=False, total_cost=total,
                    reason=f"est. {total * 1000:.1f}ms under "
                           f"{break_even_seconds * 1000:.0f}ms break-even")
    order = sorted(range(len(items)), key=lambda i: costs[i], reverse=True)
    batches: List[List[int]] = [[] for _ in range(jobs)]
    heap: List[Tuple[float, int]] = [(0.0, w) for w in range(jobs)]
    heapq.heapify(heap)
    for i in order:
        load, worker = heapq.heappop(heap)
        batches[worker].append(i)
        heapq.heappush(heap, (load + costs[i], worker))
    loads = [sum(costs[i] for i in batch) for batch in batches]
    kept = [(sorted(batch), load)
            for batch, load in zip(batches, loads) if batch]
    return Plan(parallel=True,
                batches=[batch for batch, _ in kept],
                batch_costs=[load for _, load in kept],
                total_cost=total)
