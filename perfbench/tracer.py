"""Per-layer spans for operad_forge, recorded from outside the program.

``Tracer.install`` replaces each traced function with a timing wrapper
at every binding the program calls it through: the globals of every
operad_forge module that imported it, the ``SET_COMPOSE`` table,
default arguments such as ``evaluate(..., compose=compose_max)``, and
class attributes for methods.  Wrapping one module attribute alone
misses the calls made through the other bindings.

Spans stay in memory as flat arrays (start, end, parent span, name)
until the run ends; self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter
from types import FunctionType, ModuleType

# module -> traced names; "Class.method" names are patched on the class
LAYERS = {
    "trees": (
        "enumerate_trees", "parse_tree", "degree", "restrict",
        "full_subtree", "order_relabel",
    ),
    "prelie": (
        "graft_compose", "compose_pl", "compose_pl_linear", "TreeSum.__add__",
        "degree_bounds", "min_term", "max_term", "check_extremal_terms",
    ),
    "set_operads": ("compose_max", "compose_min", "compose_nap", "check_axioms"),
    "freeness": (
        "is_indecomposable", "indecomposables", "decomposition_witnesses",
        "split", "factorize", "evaluate", "operation_trees", "find_collision",
    ),
    "series": (
        "PowerSeries.compositional_inverse", "PowerSeries.compose",
        "PowerSeries.__mul__",
    ),
    "cli": ("main",),
}


def metric_name(module: str, name: str) -> str:
    """``prelie.TreeSum.__add__`` -> ``prelie.TreeSum.add``."""
    return f"{module}.{name.replace('__', '')}"


def self_times(starts, ends, parents, ids, n_names: int, lo: int = 0, hi=None):
    """Calls and self time per name id over the spans with index in [lo, hi).

    Span k runs from starts[k] to ends[k] under the span parents[k] (-1
    for none) and has name id ids[k]; its self time is its duration
    minus the durations of its direct children.
    """
    hi = len(starts) if hi is None else hi
    calls = [0] * n_names
    self_s = [0.0] * n_names
    for k in range(lo, hi):
        took = ends[k] - starts[k]
        name = ids[k]
        calls[name] += 1
        self_s[name] += took
        parent = parents[k]
        if parent >= lo:
            self_s[ids[parent]] -= took
    return calls, self_s


class Tracer:
    def __init__(self, package: ModuleType):
        self.package = package
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ids = array("q")
        self.counters: dict[str, int] = {}
        self.threads: set[int] = set()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # ---- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        starts, ends, parents, ids = self.starts, self.ends, self.parents, self.ids
        stack, threads, get_ident = self._stack, self.threads, threading.get_ident

        if inspect.isgeneratorfunction(fn):
            # one span per next(): the consumer's work between items is not ours
            calls, yielded = f"{name}.calls", f"{name}.yielded"
            self.counters[calls] = self.counters[yielded] = 0

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.counters[calls] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = len(starts)
                    starts.append(0.0)
                    ends.append(0.0)
                    parents.append(stack[-1])
                    ids.append(name_id)
                    stack.append(sid)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[sid] = perf_counter()
                        starts[sid] = t0
                        stack.pop()
                    self.counters[yielded] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            parents.append(stack[-1])
            ids.append(name_id)
            stack.append(sid)
            threads.add(get_ident())
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                starts[sid] = t0
                stack.pop()

        return wrapper

    def _counting_truth(self, name: str, fn):
        key = f"{name}.true"
        self.counters[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result:
                self.counters[key] += 1
            return result

        return wrapper

    # ---- installation -----------------------------------------------------

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self) -> None:
        pkg = self.package
        modules = [pkg] + [getattr(pkg, m) for m in LAYERS]
        replace: dict[int, object] = {}
        for module_name, names in LAYERS.items():
            module = getattr(pkg, module_name)
            for name in names:
                metric = metric_name(module_name, name)
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:  # gone from the program: reports 0 calls
                    self.names.append(metric)
                    continue
                wrapped = self._wrap(metric, original)
                if name == "is_indecomposable":
                    wrapped = self._counting_truth(metric, wrapped)
                if owner_name:
                    self._set(owner, attr, wrapped)
                else:
                    replace[id(original)] = wrapped
        functions = []
        for module in modules:
            for key, value in list(vars(module).items()):
                if isinstance(value, FunctionType):
                    functions.append(value)
                if id(value) in replace:
                    self._set(module, key, replace[id(value)])
                elif isinstance(value, dict) and value and all(
                    callable(v) for v in value.values()
                ):  # dispatch tables such as SET_COMPOSE
                    for k, v in list(value.items()):
                        if id(v) in replace:
                            self._set(value, k, replace[id(v)])
        for fn in functions:
            defaults = fn.__defaults__
            if defaults and any(id(d) in replace for d in defaults):
                self._set(fn, "__defaults__", tuple(replace.get(id(d), d) for d in defaults))

    def uninstall(self) -> None:
        while self._undo:
            target, key, old = self._undo.pop()
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)

    # ---- results ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.starts)

    def retime(self, clock) -> None:
        """Map every span's start and end through ``clock``."""
        for column in (self.starts, self.ends):
            for k, t in enumerate(column):
                column[k] = clock(t)

    def stats(self, lo: int = 0, hi=None):
        return self_times(
            self.starts, self.ends, self.parents, self.ids, len(self.names), lo, hi
        )

    def write(self, path: Path) -> None:
        """Dump every span: a JSON header line, then the four arrays raw."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": self.span_count,
            "arrays": ["start_s:f64", "end_s:f64", "parent:i64", "name:i64"],
            "byteorder": sys.byteorder,
        }
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.starts, self.ends, self.parents, self.ids):
                column.tofile(fh)
