"""In-memory span tracer that wraps package functions where callers find them.

Each wrapped function records a span ``[name, start_ns, end_ns, parent]``
when it is called.  Wrappers are installed on the attribute a caller
resolves at call time: ``musereact.vocal`` imports ``segment_session`` by
name, so the span for it is installed on ``musereact.vocal``, not only on
``musereact.core``.  ``uninstall`` restores every original attribute.

A span's self time is its duration minus the durations of its direct
children.  Calls run on one thread and children nest inside their parent,
so children never overlap and their durations add up.
"""

from __future__ import annotations

import collections
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start_ns, end_ns, parent]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class; for a class the raw attribute is
        taken from its ``__dict__`` so classmethods stay classmethods.
        ``after(tracer, args, result)`` runs after a successful call, to
        record counts where the work happens.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapped = self._wrapper(func, name, after)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _wrapper(self, func, name, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- span arithmetic --------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls": n, "self_ns": total self time}}``."""
        out: dict[str, dict[str, float]] = {}
        for (name, *_), own in zip(self.spans, self.self_times_ns()):
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += own
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")

