"""The benchmark's own span recorder, independent of ``repro.obs``.

Spans are opened by benchmark code around calls into the program's
public functions, so a change to the program's tracing can never change
how the benchmark measures.  A span holds a name, a layer, a start and an
end (``time.perf_counter`` seconds), the index of its parent span on the
same thread, and an op id shared by every span of one operation.  Counts
are recorded at the same boundaries with :meth:`Recorder.count`.

Everything stays in memory until the run ends; then
:meth:`Recorder.write_chrome` writes a Chrome-trace file (open it in
Perfetto or ``chrome://tracing``) and :func:`self_times` gives the
per-layer self time: a span's duration minus the part its children
cover.
"""

import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "tid")

    def __init__(self, name, layer, start, parent, op, tid):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.tid = tid

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """In-memory spans and counts for one traced run."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name, layer, op=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        record = Span(name, layer, None, parent, op, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def count(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # --- read-out -------------------------------------------------------------

    def total(self, name):
        """Summed duration of every finished span called ``name``."""
        return sum(s.duration for s in self.spans
                   if s.name == name and s.end is not None)

    def durations(self, name):
        return [s.duration for s in self.spans
                if s.name == name and s.end is not None]

    def write_chrome(self, path):
        """Write complete ('X') events in the Chrome trace-event format."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(s.start for s in self.spans)
        events = []
        for s in self.spans:
            if s.end is None:
                continue
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": s.tid, "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "args": {"op": s.op, "parent": s.parent}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


class NullRecorder:
    """Untraced runs: every call is a no-op, so no span is recorded."""

    enabled = False

    @contextmanager
    def span(self, name, layer, op=None):
        yield None

    def count(self, name, value=1):
        pass


def self_times(recorder, root):
    """``{layer: seconds}`` of self time inside the span ``root``.

    Each span's self time is its duration minus its children's
    durations; summed over the subtree this equals the root's duration,
    so the table always adds up to the root's wall time.
    """
    root = next(i for i, s in enumerate(recorder.spans) if s is root)
    children = defaultdict(float)
    in_tree = {root}
    for index, s in enumerate(recorder.spans):
        if index == root or s.end is None:
            continue
        if s.parent in in_tree:
            in_tree.add(index)
            children[s.parent] += s.duration
    table = defaultdict(float)
    for index in sorted(in_tree):
        s = recorder.spans[index]
        table[s.layer] += s.duration - children[index]
    return dict(table)


def format_self_times(table, wall):
    """Render a self-time table with shares of ``wall``."""
    lines = ["%-16s %10s %7s" % ("layer", "self (s)", "share")]
    for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
        lines.append("%-16s %10.4f %6.1f%%"
                     % (layer, seconds, 100.0 * seconds / wall if wall
                        else 0.0))
    lines.append("%-16s %10.4f %6.1f%%"
                 % ("total", sum(table.values()),
                    100.0 * sum(table.values()) / wall if wall else 0.0))
    return "\n".join(lines)
