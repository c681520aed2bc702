"""Outside-in span recorder and the self-time arithmetic over its spans.

A span is ``(name, start, end, parent, cmd)``: ``parent`` is the index of
the enclosing span in the same command (``-1`` at top level) and ``cmd``
identifies the CLI command that produced it.  Spans stay in memory and are
written as JSON lines when the traced process exits.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Records spans around wrapped callables and plain event counters."""

    def __init__(self, cmd: int = 0, clock=time.perf_counter):
        self.cmd = cmd
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped in a span called ``name``.  ``count(args, result)``,
        if given, yields ``(counter, amount)`` pairs added after each call."""
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.cmd]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                for key, amount in count(args, result):
                    counters[key] += amount
            return result

        return traced

    def counting(self, name: str, fn):
        """``fn`` wrapped so that each call only bumps counter ``name``."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write_jsonl(self, fh, header: dict):
        """One header object, then one object per span."""
        fh.write(json.dumps(dict(header, counters=dict(self.counters))) + "\n")
        for i, (name, start, end, parent, cmd) in enumerate(self.spans):
            fh.write(
                json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "cmd": cmd}
                )
                + "\n"
            )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, the summed duration minus the part of each span's
    interval that its child spans cover."""
    children: dict[tuple, list] = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[(s["cmd"], s["parent"])].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        lo, hi = s["start"], s["end"]
        kids = [
            (max(lo, c["start"]), min(hi, c["end"]))
            for c in children.get((s["cmd"], s["id"]), ())
        ]
        out[s["name"]] += (hi - lo) - _covered(kids)
    return dict(out)


def outermost_time(spans: list[dict], names: set[str]) -> float:
    """Time inside spans named in ``names``, not counting such a span again
    when it runs inside another one."""
    by_key = {(s["cmd"], s["id"]): s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] not in names:
            continue
        parent = s["parent"]
        nested = False
        while parent >= 0:
            p = by_key[(s["cmd"], parent)]
            if p["name"] in names:
                nested = True
                break
            parent = p["parent"]
        if not nested:
            total += s["end"] - s["start"]
    return total
