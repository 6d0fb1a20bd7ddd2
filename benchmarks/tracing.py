"""In-memory spans and call counters for one benchmark repetition.

A span is ``[name, start, end, parent, run_id]``: ``start``/``end`` are
``time.perf_counter()`` readings, ``parent`` is the index of the enclosing span
(-1 at the top) and ``run_id`` numbers the enclosing solver run (0 outside any
run). Spans are kept in a list and written out only when the repetition ends.

Counters are attributed to the innermost open span, so a ratio such as
"operator applies per iteration" is measured where the work happens.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

RUN_SPAN = "solver.run"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._runs = 0

    def timed(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after`` may replace the result."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if name == RUN_SPAN:
                self._runs += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._runs]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            return after(out) if after is not None else out

        return wrapper

    def patch(self, module, attr: str, name: str, after=None) -> None:
        """Time every call the program makes through ``module.attr``."""
        setattr(module, attr, self.timed(name, getattr(module, attr), after))

    def call(self, name: str, fn, *args, **kwargs):
        return self.timed(name, fn)(*args, **kwargs)

    def counting(self, counter: str, fn):
        """Return ``fn`` wrapped so each call bumps ``(innermost span, counter)``."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[(spans[stack[-1]][0] if stack else "", counter)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, counter: str, amount: int) -> None:
        """Bump a counter that a layer reports in its return value."""
        self.counts[("", counter)] += amount

    def count(self, counter: str, within=None) -> int:
        """Sum of ``counter`` over the given span names (all when None)."""
        return sum(n for (span, c), n in self.counts.items()
                   if c == counter and (within is None or span in within))

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(calls, total seconds, self seconds)``.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because a repetition is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path: str, origin: float) -> None:
        """Write the spans as JSON, times in microseconds since ``origin``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[name], round((start - origin) * 1e6, 3),
                 round((end - origin) * 1e6, 3), parent, run_id]
                for name, start, end, parent, run_id in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "run_id"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
