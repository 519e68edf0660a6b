"""Spans and counters recorded around calls into ``gridtrade`` modules.

A :class:`Tracer` wraps library functions at every module attribute that
binds them (``gridtrade.trading.curtailment_factor`` as well as
``gridtrade.network.curtailment_factor``, since ``trading`` imports it by
name), so calls are traced however the caller reaches them.  Spans are kept
in memory as ``(name, start, end, parent)`` and written out when the run
ends.  A layer's self time is its spans' durations minus their children's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable

# (owner path, attribute, span name).  The owner is a module or a class in
# it; the attribute is wrapped wherever the same object is bound.
SPANNED = (
    ("gridtrade.lp", "solve", "lp.solve"),
    ("gridtrade.lp", "linprog", "lp.linprog"),
    ("gridtrade.proposer", "find_worthy_fd_trade", "proposer.search"),
    ("gridtrade.participants", "evaluate_utility", "participants.evaluate_utility"),
    ("gridtrade.market.Market", "total_utility", "market.total_utility"),
    ("gridtrade.trading", "run_trading", "trading.run"),
    ("gridtrade.trading", "so_step", "trading.so_step"),
    ("gridtrade.trading", "validate_trade", "trading.validate"),
    ("gridtrade.trading", "is_worthy", "trading.is_worthy"),
    ("gridtrade.trading", "announce", "trading.announce"),
    ("gridtrade.network", "curtailment_factor", "network.curtailment"),
    ("gridtrade.network", "is_feasible_direction", "network.direction"),
    ("gridtrade.network", "binding_lines", "network.binding"),
    ("gridtrade.network", "check_feasible", "network.check_feasible"),
    ("gridtrade.network", "build_loading_matrix", "network.build_loading_matrix"),
    ("gridtrade.dispatch", "solve_dispatch", "dispatch.solve_dispatch"),
    ("gridtrade.dispatch", "check_arrow_debreu", "dispatch.check_eq"),
    ("gridtrade.market_io", "write_trace", "market_io.write_trace"),
    ("gridtrade.tree", "decompose_sequential", "tree.decompose"),
    ("gridtrade.tree", "decompose_conformal", "tree.decompose"),
    ("gridtrade.robust", "accept_interval_trade", "robust.accept"),
)

# Called too often for a span each: counted only.
COUNTED = (("gridtrade.participants.UtilityFunction", "value", "participants.value"),)

COUNTER_SPAN = "trace.counters"


def _resolve(path: str):
    """Module or class named by a dotted path, importing the module if needed."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise LookupError(path)


def lp_size(program) -> dict[str, int]:
    """Rows, columns, nonzeros and dense cells of a ``LinearProgram``."""
    rows = nnz = 0
    for a in (program.a_eq, program.a_ub):
        if a is not None:
            rows += a.shape[0]
            nnz += int((a != 0).sum())
    cols = program.c.size
    return {"lp.rows": rows, "lp.cols": cols, "lp.nnz": nnz, "lp.dense_cells": rows * cols}


def _count_lp(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts.update(lp_size(args[0] if args else kwargs["lp"]))


def _count_search(tracer: "Tracer", args, kwargs, result) -> None:
    if result[0] is not None:
        tracer.counts["proposer.useful"] += 1


def _count_components(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["tree.bilateral_trades"] += len(result)


HOOKS: dict[str, Callable] = {
    "lp.solve": _count_lp,
    "proposer.search": _count_search,
    "tree.decompose": _count_components,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        span = self.span
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name + "_calls"] += 1
            with span(name):
                result = fn(*args, **kwargs)
                if hook is not None:
                    # The hook's cost lands in its own span, not the layer's.
                    with span(COUNTER_SPAN):
                        hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name + "_calls"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def installed(self):
        """Wrap every traced function at each attribute binding it, then restore."""
        patches = []
        wrappers: dict[int, Callable] = {}
        plan = [(o, a, n, self.wrap) for o, a, n in SPANNED]
        plan += [(o, a, n, self.count) for o, a, n in COUNTED]
        for owner_path, attr, name, make in plan:
            owner = _resolve(owner_path)
            original = vars(owner)[attr]
            wrappers.setdefault(id(original), make(name, original))
            patches += [(holder, key, original) for holder, key in _bindings(original, owner)]
        try:
            for holder, key, original in patches:
                setattr(holder, key, wrappers[id(original)])
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def write(self, fp, label: str) -> None:
        """One JSON line per span; ``parent`` indexes the same label's spans."""
        for name, start, end, parent in self.spans:
            fp.write(json.dumps({"trace": label, "name": name, "start": start,
                                 "end": end, "parent": parent}))
            fp.write("\n")


def _bindings(obj, owner) -> Iterable[tuple[object, str]]:
    """Every ``(holder, attribute)`` binding ``obj`` in ``owner`` or a loaded gridtrade module."""
    holders = [owner] + [
        module
        for mod_name, module in list(sys.modules.items())
        if module is not None
        and module is not owner
        and (mod_name == "gridtrade" or mod_name.startswith("gridtrade."))
    ]
    return [
        (holder, key)
        for holder in holders
        for key, value in list(vars(holder).items())
        if value is obj
    ]


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-name total of span duration minus the duration of direct children."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    return dict(totals)
