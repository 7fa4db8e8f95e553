"""In-memory span tracer for the sweep path, installed from outside vecop.

`Tracer.installed()` replaces the module attributes that the sweep looks up
at call time with timing wrappers and restores the originals on exit, so the
program under test is not edited. Every span records its name, start, end,
parent span (a per-thread stack; spans opened on a pool thread hang under the
current sweep span) and a cell id `lot/demand/setting` shared by one cell's
spans. Spans stay in memory until `write()`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

from vecop import delaymodel, harness, linkmodel, solver
from vecop.formulation import BINARY


def _model_census(model) -> dict[str, int]:
    return {
        "formulation.variables": len(model.variables),
        "formulation.binaries": sum(1 for v in model.variables if v.kind == BINARY),
        "formulation.constraints": len(model.constraints),
        "formulation.nonzeros": sum(len(c.coeffs) for c in model.constraints),
    }


def _node_count(res) -> dict[str, int]:
    return {"highs.bb_nodes": int(getattr(res, "mip_node_count", 0) or 0)}


# (module, attribute, span name, counts taken from the result). The span name
# is the layer that owns the function, so harness.evaluate and
# solver.evaluate both count as formulation.evaluate and harness.validate
# counts as scenario.validate.
WRAPPED = (
    (solver, "solve", "solver.solve", None),
    (solver, "formulate", "formulation.formulate", _model_census),
    (solver, "milp", "highs.milp", _node_count),
    (solver, "evaluate", "formulation.evaluate", None),
    (harness, "evaluate", "formulation.evaluate", None),
    (harness, "validate", "scenario.validate", None),
    (linkmodel, "build_links", "linkmodel.build_links", None),
    (delaymodel, "build_tables", "delaymodel.build_tables", None),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    cell: str
    thread: int


def _cell_of(lot, args) -> Optional[str]:
    """Cell id from a per-cell scenario variant passed as first argument."""
    scenario = args[0] if args else None
    if not hasattr(scenario, "demands") or not hasattr(scenario, "settings"):
        return None
    demand = scenario.demands[0].traffic
    return f"{lot}/{demand:g}/{scenario.settings.processing_setting.value}"


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap across threads)."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.lot = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None
        self._root_cell = ""

    def _stack(self) -> list[tuple[int, str]]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None, root: bool = False):
        stack = self._stack()
        if stack:
            parent, parent_cell = stack[-1]
        else:
            parent, parent_cell = self._root, self._root_cell
        cell = cell if cell is not None else parent_cell
        span_id = next(self._ids)
        if root:
            self._root, self._root_cell = span_id, cell
        stack.append((span_id, cell))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root, self._root_cell = None, ""
            self.spans.append(
                Span(span_id, name, start, end, parent, cell, threading.get_ident())
            )

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, _cell_of(tracer.lot, args)):
                result = fn(*args, **kwargs)
            if counter is not None:
                # Its own span, so that counting is not charged to the caller.
                with tracer.span("trace.census"):
                    counts = counter(result)
                    with tracer._lock:
                        tracer.counts.update(counts)
            return result

        return traced

    @contextmanager
    def installed(self):
        originals = [getattr(module, attr) for module, attr, _, _ in WRAPPED]
        try:
            for (module, attr, name, counter), fn in zip(WRAPPED, originals):
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for (module, attr, _, _), fn in zip(WRAPPED, originals):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.name] += (s.end - s.start) - _covered(children[s.id])
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(asdict(s)) + "\n")
