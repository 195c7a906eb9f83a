"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, user): `parent` is the index of
the enclosing span (None at the top) and `user` the target user the
work was for, if any.  Spans live in a list until `write` dumps them
as JSON lines.  A disabled recorder hands out one shared no-op context,
so the untraced loop runs the same code at (almost) no cost.
"""

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


class Span:
    __slots__ = ("name", "start", "end", "parent", "user", "_rec")

    def __init__(self, rec, name, parent, user):
        self._rec, self.name, self.parent, self.user = rec, name, parent, user
        self.start = self.end = None

    def __enter__(self):
        self._rec._stack.append(len(self._rec.spans))
        self._rec.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self._rec._stack.pop()
        return False


class SpanRecorder:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    def span(self, name: str, user=None):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        return Span(self, name, parent, user)

    def call(self, name: str, fn, *args, user=None, **kwargs):
        """fn(*args, **kwargs) inside a span named `name`."""
        with self.span(name, user):
            return fn(*args, **kwargs)

    def self_times(self) -> list:
        """Per span: duration minus the part of it covered by its children."""
        return self_times([(s.start, s.end, s.parent) for s in self.spans])

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "user": s.user,
                                     "self": own[i]}) + "\n")


def self_times(spans) -> list:
    """spans: (start, end, parent_index) triples.  A child's interval is
    clipped to its parent and overlapping children are counted once."""
    children: dict = {}
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((max(spans[c][0], start), min(spans[c][1], end))
                             for c in children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
