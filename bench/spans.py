"""Span tracer installed from outside the library.

Wrappers replace module and class attributes that the library resolves
at call time (``gossipshield.engine.scc_round``, ``AttackPlan.apply``,
``GlobalProblem.f`` ...), so no library file changes. Each call records
one span (name, start, end, parent) in memory; spans are written out and
reduced to self times only after the timed work ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Collects spans from every wrapper it installs until ``uninstall``."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, targets, count=None) -> None:
        """Time every call of each (owner, attribute) target as span `name`.

        `count(args, counts)` may add to the tracer's counters at the same
        boundary. A layer none of whose targets exists is recorded as
        missing, and the run goes on without it.
        """
        found = False
        for owner, attr in targets:
            orig = vars(owner).get(attr)
            if orig is None:
                continue
            found = True
            setattr(owner, attr, self._wrapper(name, orig, count))
            self._undo.append((owner, attr, orig))
        if not found:
            self.missing.append(name)

    def _wrapper(self, name, orig, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if count is not None:
                    count(args, counts)

        return traced

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_times(self):
        """Per span: self time in ns, the span's duration minus the part
        its direct children cover."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [end - start - child_ns[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")
