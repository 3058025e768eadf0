"""In-memory span tracer that instruments a program from outside.

A span records a name, a start and an end (``perf_counter_ns``), the id of its
parent span and the thread it ran on.  Every thread keeps its own stack of
open spans, so the parent of a span is the innermost span still open on the
same thread; a span opened on a thread with an empty stack (a backend's driver
or pool thread) is a root.  Spans stay in memory until the caller reads them.

A span's self time is its duration minus the part of its interval that its
child spans cover (the union of the children's intervals, clipped to the
parent).  Because children always run on the parent's thread, self times of
one thread never add up to more than that thread's wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    thread: int


class Tracer:
    """Collects spans and exact counters; patches callables in place."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, n: int = 1) -> None:
        with self._lock:
            self.counts[counter] += n

    def wrap(self, fn, name):
        """``fn`` recorded as a span.  ``name`` is a string, or a function of
        the parent span's name (None for a root) that returns one."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            label = name if isinstance(name, str) else name(parent and parent[1])
            sid = next(tracer._ids)
            stack.append((sid, label))
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.spans.append(Span(sid, label, t0, t1, parent and parent[0],
                                         threading.get_ident()))

        return traced

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        Class attributes are read from the class ``__dict__`` so that
        classmethods keep their binding; :meth:`restore` undoes every patch.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, int]:
    """Total self time in ns per span name."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered_ns(children.get(s.id, ()), s.start, s.end)
    return dict(out)


def durations(spans) -> dict[str, int]:
    """Total wall duration in ns per span name."""
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += s.end - s.start
    return dict(out)


def call_counts(spans) -> Counter:
    return Counter(s.name for s in spans)
