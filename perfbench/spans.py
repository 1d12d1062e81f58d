"""In-memory span tracer that wraps module functions for as long as a run lasts.

The benchmark records spans from its own side of the call boundary: it
replaces public functions of the robustcl modules with timing wrappers while
a `Tracer.installed` block is open and puts the originals back when it
closes, even on error. Nothing under `src/` knows it is being traced.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

# span fields: [name, start, end, parent index (-1 at top level), group id]
NAME, START, END, PARENT, GROUP = range(5)


class Tracer:
    """Records one span per call of every wrapped function.

    All spans opened before a call of a `group_end` function returns share
    one group id, so an optimizer step or an attack batch can be read back
    as one unit of work. Spans are read from `clock`; `poll`, if given, is
    called after every wrapped call returns.
    """

    def __init__(self, group_end=(), clock=perf_counter, poll=None):
        self.spans = []
        self.clock = clock
        self.poll = poll
        self.counters = {}
        self.group = 0
        self._stack = []
        self._group_end = frozenset(group_end)
        self._saved = []

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def take(self):
        """Return and forget the spans and counters recorded so far."""
        if self._stack:
            raise RuntimeError("take() called while spans are open")
        spans, counters = list(self.spans), self.counters
        self.spans.clear()
        self.counters = {}
        return spans, counters

    def span(self, name, probe=None):
        """Wrapper factory: time each call as a span named `name`.

        `probe(tracer, span, args, kwargs, result)` runs after a call that
        returned, to record counts taken from the arguments or the result.
        """
        def factory(fn):
            spans, stack, clock, poll = self.spans, self._stack, self.clock, self.poll
            ends_group = name in self._group_end

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.group]
                stack.append(len(spans))
                spans.append(rec)
                rec[START] = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[END] = clock()
                    stack.pop()
                    if ends_group:
                        self.group += 1
                if probe is not None:
                    probe(self, rec, args, kwargs, out)
                if poll is not None:
                    poll()
                return out

            return wrapper
        return factory

    @contextmanager
    def installed(self, targets):
        """Replace `owner.attr` by `factory(owner.attr)` for each target
        (owner, attr, factory) inside the block; restore all on exit."""
        try:
            for owner, attr, factory in targets:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)


def self_times(spans):
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def totals(spans):
    """{name: [calls, inclusive seconds, self seconds]} over `spans`."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s[END] - s[START]
        row[2] += own
    return out
