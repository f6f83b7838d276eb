"""Per-layer tracing from outside the program.

The tracer wraps public functions of the ``pcar`` modules and rebinds every
module global that names the original, so calls made through names imported
into other modules (``pcar.study.eligible``, ``pcar.agent.advance``, ...)
and calls inside a module (``calibrate_threshold`` -> ``eligible``) all go
through the wrapper and nest.

Calls land on a calling-context tree. A hot function gets one node per
caller node and only adds to its call count and time, so millions of calls
cost one dict lookup each instead of one stored record. A function marked
as a span gets a node per call that keeps its start, end and unit id; the
spans are what the traced run writes out. A node's self time is its time
minus the time of its child nodes: one thread runs, so children never
overlap and their sum is the part of the parent's interval they cover.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable


class Node:
    """Calls of one function under one caller node (or one call, for a span)."""

    __slots__ = ("name", "parent", "children", "calls", "total", "count",
                 "start", "end", "unit", "span_id")

    def __init__(self, name: str, parent: "Node | None"):
        self.name = name
        self.parent = parent
        self.children: dict = {}
        self.calls = 0
        self.total = 0.0
        self.count = 0
        self.start = self.end = None
        self.unit = None
        self.span_id = None

    @property
    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())


@dataclass
class LayerStat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    count: float = 0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.root = Node("root", None)
        self.stack = [self.root]
        self.spans: list[Node] = []
        self.unit = None
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, span: bool = False, count=None):
        """Return ``fn`` wrapped to record under ``name``. ``count(args,
        result)`` adds to the node's counter after each successful call."""
        stack, clock, spans = self.stack, self.clock, self.spans

        if span:
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                node = Node(name, parent)
                node.unit = self.unit
                node.span_id = len(spans)
                parent.children[(name, node.span_id)] = node
                spans.append(node)
                stack.append(node)
                node.start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    node.end = clock()
                    node.total = node.end - node.start
                    node.calls = 1
                    stack.pop()
                if count is not None:
                    node.count += count(args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                node = parent.children.get(name)
                if node is None:
                    node = parent.children[name] = Node(name, parent)
                stack.append(node)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    node.total += clock() - t0
                    node.calls += 1
                    stack.pop()
                if count is not None:
                    node.count += count(args, result)
                return result

        return wrapper

    def install(self, targets, package: str = "pcar") -> None:
        """Wrap every target. A module function is rebound wherever a module
        of ``package`` holds it as a global; a method is replaced on its
        class."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for t in targets:
            module_name, _, class_name = t.owner.partition(":")
            owner = sys.modules[module_name]
            if class_name:
                cls = getattr(owner, class_name)
                original = cls.__dict__[t.attr]
                self._patch(cls, t.attr, self.wrap(t.name, original, t.span, t.count))
                continue
            original = getattr(owner, t.attr)
            wrapper = self.wrap(t.name, original, t.span, t.count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results -------------------------------------------------------------

    def nodes(self):
        todo = list(self.root.children.values())
        while todo:
            node = todo.pop()
            yield node
            todo.extend(node.children.values())

    def layer_stats(self) -> dict[str, LayerStat]:
        """Calls, inclusive time, self time and counter summed per name."""
        stats: dict[str, LayerStat] = {}
        for node in self.nodes():
            s = stats.setdefault(node.name, LayerStat())
            s.calls += node.calls
            s.total += node.total
            s.self_time += node.self_time
            s.count += node.count
        return stats

    def span_records(self) -> list[dict]:
        """One record per span: name, start, end, parent span, unit id, self
        time, and the hot calls made under it folded per function name."""
        out = []
        for span in self.spans:
            parent = span.parent
            while parent is not None and parent.span_id is None:
                parent = parent.parent
            folded: dict[str, list] = {}
            todo = list(span.children.values())
            while todo:
                node = todo.pop()
                if node.span_id is not None:
                    continue
                entry = folded.setdefault(node.name, [0, 0.0])
                entry[0] += node.calls
                entry[1] += node.total
                todo.extend(node.children.values())
            out.append({
                "id": span.span_id,
                "name": span.name,
                "unit": span.unit,
                "start": span.start,
                "end": span.end,
                "parent": None if parent is None else parent.span_id,
                "self_s": span.self_time,
                "calls": {k: {"calls": c, "total_s": s}
                          for k, (c, s) in sorted(folded.items())},
            })
        return out
