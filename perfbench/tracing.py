"""In-memory spans and counters around the benchmark's own calls into gaborlab.

A span records its name, start, end, parent span and job id; spans stay in a
list until the run ends and are then written out in one piece.  The span
name is ``<layer>.<function>``; the layer is the gaborlab module (or
``bench`` for the benchmark's own job spans).  Nothing in the package is
patched: only calls made from the benchmark files are seen.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one attribute lookup each."""

    enabled = False
    job = None

    def span(self, name, **attrs):
        return _NULL

    def count(self, name, n=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "job": self.job}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    def self_times(self):
        """Self time (s) of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return [rec["end"] - rec["start"] - c for rec, c in zip(self.spans, child)]

    def self_ms_by(self, key):
        """Sum of self times in ms grouped by key(span); key None drops it."""
        out = defaultdict(float)
        for rec, s in zip(self.spans, self.self_times()):
            k = key(rec)
            if k is not None:
                out[k] += 1e3 * s
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
