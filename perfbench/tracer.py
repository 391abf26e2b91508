"""In-memory span tracer for the traced benchmark run.

The tracer wraps every public module-level function of the given modules
and rebinds each wrapper wherever the original is bound by name in a loaded
``igsplat`` module (``from .renderer import render`` copies the function
into the importing module, so patching only the defining module would miss
those calls). Nothing under ``src/`` changes; ``uninstall`` restores every
original binding.

A span is (name, start, end, parent, step, pass, counts): ``parent`` is the
index of the enclosing span (-1 at the top), ``step`` the training step the
span ran in (spans of one step share it), ``pass`` the benchmark pass, and
``counts`` what a counter hook read from the call's result.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, modules, counters: dict | None = None, step_of: dict | None = None):
        """``counters`` maps a span name to ``f(args, kwargs, result) -> dict``;
        ``step_of`` maps a span name to ``f(args, kwargs) -> step id`` for the
        spans that open a training step."""
        self.modules = list(modules)
        self.counters = counters or {}
        self.step_of = step_of or {}
        self.spans: list[list] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._step: int | None = None
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._step, self.pass_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a stage call."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        counter = self.counters.get(name)
        step_of = self.step_of.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_step = self._step
            if step_of is not None:
                self._step = step_of(args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                self._step = outer_step
            if counter is not None:
                self.spans[index][6] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        package = self.modules[0].__name__.split(".")[0]
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != package:
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write_jsonl(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "step", "pass", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total and self seconds, calls inside a training
    step, and summed counts. Self time is the span's duration minus the time
    covered by its direct children."""
    child_time = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for index, (name, start, end, _, step, _, counts) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "in_step": 0, "total": 0.0, "self": 0.0,
                                      "counts": defaultdict(int)})
        entry["calls"] += 1
        entry["in_step"] += step is not None
        entry["total"] += end - start
        entry["self"] += end - start - child_time[index]
        for key, value in (counts or {}).items():
            entry["counts"][key] += value
    return out
