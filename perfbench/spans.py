"""In-memory span tracer that rebinds public library names.

`wrap` replaces one attribute of a module or class with a wrapper that
records a span (name, start, end, parent) around each call; `restore` puts
the originals back.  Only the process that installs the tracer is affected.
A name its owner no longer has is recorded as absent and skipped, so a
refactor that removes a traced name does not stop the benchmark.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.kept = defaultdict(list)  # span name -> return values, when asked for
        self.absent = []
        self._stack = []
        self._saved = []

    def wrap(self, owner, attr: str, name: str, keep: bool = False):
        original = vars(owner).get(attr)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        spans, stack, kept = self.spans, self._stack, self.kept[name]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else None])
            stack.append(index)
            try:
                out = original(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
            if keep:
                kept.append(out)
            return out

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def clear(self):
        """Drop recorded spans and kept values (the lists stay bound to the wrappers)."""
        self.spans.clear()
        for values in self.kept.values():
            values.clear()

    def totals(self) -> dict:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; calls are synchronous, so children nest inside their parent.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), cov in zip(self.spans, covered):
            entry = out[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - cov
        return out
