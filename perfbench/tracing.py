"""Spans around the benchmark's calls into the package.

A :class:`Tracer` wraps each public call the benchmark makes in a span
(name, start, end, parent, instance id) and keeps every span in memory
until the run ends.  :class:`NullTracer` has the same interface and
records nothing, so the untraced run pays only one extra Python call per
layer call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def instance(self, iid):
        yield


class Tracer:
    """Records spans as ``(span_id, name, start, end, parent_id, iid)``.

    Times are ``time.perf_counter()`` seconds.  Layer spans are children
    of the enclosing instance span; the instance span has parent 0.
    """

    def __init__(self):
        self.spans = []
        self._next_id = 1
        self._parent = 0
        self._iid = None

    def _new_id(self):
        sid = self._next_id
        self._next_id += 1
        return sid

    def call(self, name, fn, *args, **kwargs):
        sid = self._new_id()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                (sid, name, start, time.perf_counter(), self._parent, self._iid)
            )

    @contextmanager
    def instance(self, iid):
        sid = self._new_id()
        self._parent, self._iid = sid, iid
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((sid, "instance", start, time.perf_counter(), 0, iid))
            self._parent, self._iid = 0, None

    def busy_ms(self) -> dict:
        """Total span time per name, in milliseconds."""
        out = {}
        for _, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) * 1000
        return out

    def write(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, iid in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "instance": iid,
                    "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1),
                }) + "\n")
