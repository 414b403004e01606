"""Timing shims around the package's public functions, installed from outside.

A shim records one span per call: name, start, end and the index of the
span that was open when the call began.  Spans stay in memory until the run
ends.  A shim replaces the function on every module attribute that binds
it, not only on its home module, because the package's modules import each
other's functions by name (verify and growth bind count_avoiders,
bijections binds find_occurrence, and so on).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute) of every traced function; "Class.method" patches the
#: method on its class.
TRACED = (
    ("enumeration", "count_avoiders"),
    ("enumeration", "list_avoiders"),
    ("growth", "word_counts_by_length"),
    ("core", "find_occurrence"),
    ("bijections", "dyck_to_perm"),
    ("bijections", "perm_to_dyck"),
    ("bijections", "perm_to_labels"),
    ("bijections", "labels_to_perm"),
    ("bijections", "path_to_labels"),
    ("bijections", "labels_to_path"),
    ("bijections", "simion_schmidt_f"),
    ("bijections", "simion_schmidt_g"),
    ("formulas", "closed_count"),
    ("formulas", "explicit_count"),
    ("formulas", "recurrence_count"),
    ("gentree", "count_at_height"),
    ("classify", "canonical_pair"),
    ("cache", "CountCache.lookup"),
    ("cache", "CountCache.store"),
    ("cli", "build_parser"),
    ("cli", "main"),
)

TRACED_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)
CACHE_LOOKUP = "cache.CountCache.lookup"
PACKAGE = "msetperm"


class Tracer:
    """Collects spans while installed; restores every patched binding on exit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.cache_hits = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> tuple[int, int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        return index, parent

    def _exit(self, name: str, index: int, parent: int, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        """A span for a call the benchmark makes itself, such as one suite."""
        index, parent = self._enter(name)
        start = self.clock()
        try:
            yield
        finally:
            self._exit(name, index, parent, start)

    def _shim(self, name: str, fn):
        tracer = self
        clock = self.clock
        count_hits = name == CACHE_LOOKUP

        def shim(*args, **kwargs):
            index, parent = tracer._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, index, parent, start)
            if count_hits and result is not None:
                tracer.cache_hits += 1
            return result

        return shim

    def __enter__(self) -> "Tracer":
        homes = {name: importlib.import_module(f"{PACKAGE}.{name}") for name, _ in TRACED}
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr in TRACED:
            home = homes[module_name]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, method, self._shim(name, cls.__dict__[method]))
                continue
            original = getattr(home, attr)
            shim = self._shim(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, shim)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name.

        busy_s adds up only the outermost span of each name, so a function
        reached again through itself is not counted twice.  self_s is a
        span's duration minus the durations of its direct child spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            stats = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            stats["calls"] += 1
            stats["self_s"] += end - start - child[index]
            up = parent
            while up >= 0 and self.spans[up][0] != name:
                up = self.spans[up][3]
            if up < 0:
                stats["busy_s"] += end - start
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end (seconds from the first
        span) and the parent span's line number (-1 for none)."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - origin, 9),
                                     round(end - origin, 9), parent]) + "\n")
