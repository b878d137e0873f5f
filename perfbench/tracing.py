"""Span tracing from outside the package, and the arithmetic on spans.

A Tracer replaces public functions and methods of snoopdns with
wrappers that record one span per call: its name, start, end, parent
span and whether the call raised. Spans are kept in flat arrays in
memory and only summarised (or written out) after the traced run ends.
Each thread keeps its own stack of open spans, so the resolver process,
which answers every datagram on its own thread, can be traced too.

Self time is a span's duration minus the part of it that its child
spans cover; overlapping children are merged before subtracting, so
the self times of a tree add up to the time covered by its roots.
"""

import gzip
import threading
import time
from array import array
from collections import defaultdict


class Tracer:
    """Records spans around patched callables until uninstalled."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.raised = array("b")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        local, lock, clock = self._local, self._lock, time.perf_counter
        name_ids, starts, ends, parents, raised = (
            self.name_ids, self.starts, self.ends, self.parents, self.raised)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(starts)
                name_ids.append(name_id)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                raised.append(0)
                starts.append(clock())
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Trace owner.attr (a module function or a class's method)."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def patch_function(self, modules, fn, name: str) -> None:
        """Trace fn under every name it is bound to in the given modules,
        so calls through `from .x import fn` bindings are seen too."""
        wrapper = self._wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[tuple[str, float, float, int, bool]]:
        """(name, start, end, parent index, raised) for every span."""
        return [(self.names[n], s, e, p, bool(r)) for n, s, e, p, r in
                zip(self.name_ids, self.starts, self.ends, self.parents, self.raised)]

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: index,name,start,end,parent,raised."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index,name,start,end,parent,raised\n")
            for i, (name, start, end, parent, raised) in enumerate(self.spans()):
                out.write(f"{i},{name},{start!r},{end!r},{parent},{int(raised)}\n")


def covered_length(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of intervals, clipped to [low, high]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, low), min(end, high)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[i], ends[i]))
    out = [e - s for s, e in zip(starts, ends)]
    for parent, intervals in children.items():
        out[parent] -= covered_length(intervals, starts[parent], ends[parent])
    return out


class SpanSummary:
    """Per-name totals over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.self_s = self_times(tracer.starts, tracer.ends, tracer.parents)
        n = len(tracer.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_total = [0.0] * n
        self.errors = [0] * n
        self.durations: list[list[float]] = [[] for _ in range(n)]
        self.root_s = 0.0
        for i, (name_id, start, end, parent, raised) in enumerate(zip(
                tracer.name_ids, tracer.starts, tracer.ends, tracer.parents, tracer.raised)):
            self.calls[name_id] += 1
            self.total[name_id] += end - start
            self.self_total[name_id] += self.self_s[i]
            self.errors[name_id] += raised
            self.durations[name_id].append(end - start)
            if parent < 0:
                self.root_s += end - start
        self._index = {name: i for i, name in enumerate(tracer.names)}
        self._child_counts: dict[tuple[str, str], int] = defaultdict(int)
        for name_id, parent in zip(tracer.name_ids, tracer.parents):
            if parent >= 0:
                key = (tracer.names[tracer.name_ids[parent]], tracer.names[name_id])
                self._child_counts[key] += 1

    def _get(self, table, name, default=0):
        i = self._index.get(name)
        return default if i is None else table[i]

    def count(self, name: str) -> int:
        return self._get(self.calls, name)

    def seconds(self, name: str) -> float:
        return self._get(self.total, name, 0.0)

    def self_seconds(self, name: str) -> float:
        return self._get(self.self_total, name, 0.0)

    def raised(self, name: str) -> int:
        return self._get(self.errors, name)

    def durations_of(self, name: str) -> list[float]:
        return self._get(self.durations, name, [])

    def mean_us(self, name: str) -> float:
        calls = self.count(name)
        return self.seconds(name) / calls * 1e6 if calls else 0.0

    def children_named(self, parent: str, child: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        return self._child_counts.get((parent, child), 0)

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer, the layer being the span name's first part."""
        layers: dict[str, float] = defaultdict(float)
        for name, value in zip(self.names, self.self_total):
            layers[name.split(".", 1)[0]] += value
        return dict(layers)
