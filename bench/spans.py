"""In-memory spans recorded by the benchmark around calls into glmixer.

A span is (id, parent, name, start, end); a span's self time is its
duration minus the time its child spans cover. Counts attached to a span
name record the work a layer did (rows loaded, parameters summarized).
Spans stay in memory until ``write`` at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, name, start, end]
        self.counts = defaultdict(int)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1][0] if self._stack else None,
               name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def self_times(self) -> list:
        """Self seconds of each span, in span order."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[sid] for sid, _, _, start, end in self.spans]

    def self_by_name(self) -> dict:
        """{name: (calls, total self seconds)}."""
        out = {}
        for (_, _, name, _, _), s in zip(self.spans, self.self_times()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + s)
        return out

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [{"id": sid, "parent": parent, "name": name,
                                  "start": start, "end": end, "self": s}
                                 for (sid, parent, name, start, end), s in zip(self.spans, selfs)],
                       "counts": dict(self.counts)}, fh, indent=1)
            fh.write("\n")


def _wrap(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            tracer.count(counter[0], counter[1](args, kwargs, result))
        return result
    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer, targets):
    """Replace each target function, wherever a loaded glmixer module binds
    it, by a wrapper that records a span; restore the originals on exit.

    targets: (module name, function name, span name, counter or None),
    where a counter is (count name, f(args, kwargs, result) -> int).
    Targets the program no longer defines are skipped.
    """
    patched = []
    try:
        for modname, fname, span_name, counter in targets:
            original = getattr(sys.modules.get(modname), fname, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, original, span_name, counter)
            for mod in [m for k, m in sys.modules.items()
                        if m is not None and (k == "glmixer" or k.startswith("glmixer."))]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)
