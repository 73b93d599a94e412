"""Span tracer that wraps the public functions of ``contractpricing`` from outside.

The program has no tracing of its own, so the tracer replaces the module
attributes and class methods that callers look up with timing wrappers,
and puts the originals back when it is removed.  A module-level function
is replaced in every ``contractpricing`` module that binds it (``profile``
calls its own ``check_marginal_budget`` binding, ``cli`` its own
``write_json``), so calls from inside the package are seen as well as
calls from the benchmark.

Spans (name, start, end, parent, op id) are kept in compact arrays and
written out at the end; self time is a span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

#: (span name, module, class or None, attribute) of every wrapped callable.
#: The layer of a span is the part of its name before the first dot.
WRAPPED = (
    ("functions.eval", "functions", "ScalarFunction", "value"),
    ("functions.eval", "functions", "ScalarFunction", "derivative"),
    ("functions.eval", "functions", "TariffFunction", "value"),
    ("functions.eval", "functions", "TariffFunction", "partials"),
    ("functions.check_marginal_budget", "functions", None, "check_marginal_budget"),
    ("functions.check_menu_regularity", "functions", None, "check_menu_regularity"),
    ("menu.net", "menu", "MenuScenario", "net"),
    ("menu.net", "menu", "MenuScenario", "net_derivative"),
    ("menu.solve_menu", "menu", None, "solve_menu"),
    ("menu.maximize_net", "menu", None, "maximize_net"),
    ("menu.feasible_interval", "menu", None, "feasible_interval"),
    ("profile.build_profile", "profile", None, "build_profile"),
    ("profile.check_achievability", "profile", None, "check_achievability"),
    ("profile.step_sizes", "profile", None, "step_sizes"),
    ("profile.sensitivity_bounds", "profile", None, "sensitivity_bounds"),
    ("profile.price_window", "profile", None, "price_window"),
    ("verify.verify_menu", "verify", None, "verify_menu"),
    ("verify.verify_profile", "verify", None, "verify_profile"),
    ("verify.simulate_market", "verify", None, "simulate_market"),
    ("tradeoff.empirical_region", "tradeoff", None, "empirical_region"),
    ("config.load_config", "config", None, "load_config"),
    ("serialize.write_json", "serialize", None, "write_json"),
    ("serialize.write_csv", "serialize", None, "write_csv"),
    ("cli.run", "cli", None, "run"),
)

#: modules searched for bindings of wrapped module-level functions
PACKAGE_MODULES = ("functions", "menu", "profile", "verify", "tradeoff",
                   "config", "serialize", "cli")

#: span name of the benchmark's own root span around one operation
OP_SPAN = "bench.op"


class Tracer:
    """Records nested spans around wrapped calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bytes_written = 0
        self._stack = [-1]
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        opened, closed = self._open, self._close
        count_bytes = name.startswith("serialize.write")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if count_bytes:
                self.bytes_written += os.path.getsize(result)
            return result

        return traced

    def run_op(self, fn):
        """Call ``fn()`` as one operation, under a root span."""
        self._op += 1
        idx = self._open(self._id(OP_SPAN))
        try:
            return fn()
        finally:
            self._close(idx)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"contractpricing.{m}")
                   for m in PACKAGE_MODULES}
        for name, module, cls, attr in WRAPPED:
            if cls is not None:
                owner = getattr(modules[module], cls)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(name, original))
                continue
            original = getattr(modules[module], attr)
            traced = self.wrap(name, original)
            for mod in list(modules.values()) + [importlib.import_module("contractpricing")]:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, traced)

    def _patch(self, owner, attr, original, traced) -> None:
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write(self, path) -> None:
        """Write every span to ``path`` (``.npz``) with the name table."""
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), op=np.asarray(self.op),
                 start=np.asarray(self.start), end=np.asarray(self.end))


class SpanSummary:
    """Per-name call counts, inclusive and self times (seconds)."""

    def __init__(self, tracer: Tracer):
        n_names = len(tracer.names)
        name_id = np.asarray(tracer.name_id, dtype=np.int64)
        parent = np.asarray(tracer.parent, dtype=np.int64)
        dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        self.names = tracer.names
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self._calls = np.bincount(name_id, minlength=n_names)
        self._incl = np.bincount(name_id, weights=dur, minlength=n_names)
        self._self = np.bincount(name_id, weights=self_time, minlength=n_names)
        op_id = self._ids.get(OP_SPAN, -1)
        is_op = name_id == op_id
        under_op = has_parent & is_op[np.maximum(parent, 0)]
        self.op_seconds = float(dur[is_op].sum())
        self.covered_seconds = float(dur[under_op].sum())
        self.span_count = int(dur.size)
        self.bytes_written = tracer.bytes_written
        self._name_id = name_id
        self._op = np.asarray(tracer.op, dtype=np.int64)

    def calls(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else int(self._calls[i])

    def inclusive(self, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(self._incl[i])

    def self_time(self, name: str) -> float:
        i = self._ids.get(name)
        return 0.0 if i is None else float(self._self[i])

    def layer_self_time(self, layer: str) -> float:
        return sum(self.self_time(n) for n in self.names
                   if n.split(".", 1)[0] == layer)

    def per_op_calls(self, name: str, n_ops: int) -> np.ndarray:
        """Calls of ``name`` inside each operation, indexed by op id."""
        i = self._ids.get(name)
        if i is None:
            return np.zeros(n_ops, dtype=np.int64)
        return np.bincount(self._op[(self._name_id == i) & (self._op >= 0)], minlength=n_ops)

    @property
    def coverage(self) -> float:
        """Share of operation time spent inside layer spans."""
        return self.covered_seconds / self.op_seconds if self.op_seconds else 0.0
