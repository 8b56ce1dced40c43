"""Span tracing for the traced benchmark passes.

During a traced pass the finring layer functions in ``_TRACED`` are
rebound, in every finring module that holds them, to wrappers that record
one span per call, and the element deciders that ``deciders.classify``
sweeps are wrapped in its ``_ELEMENT_DECIDERS`` table.  The program's
source is not changed, and every binding is restored when the pass ends.
Spans stay in memory; ``run.py`` writes them out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from finring import constructions, deciders, harness, kernel

# Layer functions wrapped during a traced pass, with their span names.
_TRACED = {
    constructions._verify_associativity: "constructions.assoc_gate",
    kernel.freeze: "kernel.freeze",
    kernel._build_tables: "kernel.tables",
    kernel._compute_units: "kernel.units",
    kernel._compute_nilpotents: "kernel.nilpotents",
    kernel._compute_jacobson: "kernel.jacobson",
    kernel.verify_ring_axioms: "kernel.axioms",
    deciders.classify: "deciders.classify",
    deciders.is_NI: "deciders.NI",
    harness._check_instance: "harness.instance",
}

# kernel.tables counts the table build that freeze starts (and the factor
# tables built inside it); tables built for an axiom check or the FM gate
# stay in that span's self time.
_TABLES_UNDER = ("kernel.freeze", "kernel.tables")

# Per-layer metrics read from span self times; every other span name
# maps to "<name>_s".
_METRIC_OF_SPAN = {"harness.instance": "harness.crosscheck_s"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span in Tracer.spans; -1 at the top
    item: str       # shared by all spans of one ring, suite or falsifier instance


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.item = ""
        self._stack: list[int] = []
        self._sweep = None          # name of the open flag-sweep span
        self._instances = 0

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _end_sweep(self) -> None:
        # An open flag sweep is always the innermost span: it ends when the
        # next flag starts or when any other span opens or closes.
        if self._sweep is not None:
            self._sweep = None
            self._close(self._stack[-1])

    @contextmanager
    def span(self, name: str, item: str = None):
        self._end_sweep()
        outer_item = self.item
        if item is not None:
            self.item = item
        idx = self._open(name)
        try:
            yield
        finally:
            self._end_sweep()
            self._close(idx)
            self.item = outer_item

    def _parent_name(self):
        return self.spans[self._stack[-1]].name if self._stack else None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        if name == "kernel.freeze":
            return self._wrap_freeze(fn)

        def traced(*args, **kwargs):
            if name == "kernel.tables" and self._parent_name() not in _TABLES_UNDER:
                return fn(*args, **kwargs)
            item = None
            if name == "harness.instance":
                self._instances += 1
                item = f"{self.item}#{self._instances}"
            with self.span(name, item):
                return fn(*args, **kwargs)

        return traced

    def _wrap_freeze(self, fn):
        def traced(R, *args, **kwargs):
            fresh = R.caches is None
            with self.span("kernel.freeze"):
                out = fn(R, *args, **kwargs)
            if fresh:
                tables = (R._mul_np, R._add_np, R._neg_np)
                self.counts["kernel.scalar_path_rings"] += R._mul_np is None
                self.counts["kernel.table_bytes"] += sum(
                    t.nbytes for t in tables if t is not None
                )
            return out

        return traced

    def _sweeper(self, flag: str, fn):
        name = f"deciders.flag.{flag}"
        counter = f"{name}.elements"

        def decider(R, x):
            if self._sweep != name:
                self._end_sweep()
                self._open(name)
                self._sweep = name
            self.counts[counter] += 1
            return fn(R, x)

        return decider

    @contextmanager
    def installed(self):
        """Rebind the traced layer functions for the duration of the block."""
        wrappers = {id(fn): (fn, self._wrap(fn, name)) for fn, name in _TRACED.items()}
        rebound = []
        for modname, mod in list(sys.modules.items()):
            if modname != "finring" and not modname.startswith("finring."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    rebound.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        table = deciders._ELEMENT_DECIDERS
        original_table = dict(table)
        for flag, fn in original_table.items():
            table[flag] = self._sweeper(flag, fn)
        try:
            yield self
        finally:
            table.update(original_table)
            for mod, attr, value in rebound:
                setattr(mod, attr, value)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Self time per span name as "<name>_s", plus the counters."""
        durations = [s.end - s.start for s in self.spans]
        self_time = list(durations)
        for span, duration in zip(self.spans, durations):
            if span.parent >= 0:
                self_time[span.parent] -= duration
        out = Counter()
        for span, seconds in zip(self.spans, self_time):
            out[_METRIC_OF_SPAN.get(span.name, f"{span.name}_s")] += seconds
        out.update(self.counts)
        return dict(out)

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}
