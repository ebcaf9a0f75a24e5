"""In-memory spans and the order statistics every metric is reported with.

A span is ``(name, start, end, parent, op, rank)``: ``parent`` is the index
of the enclosing span in the same tracer, ``op`` identifies the operation
the span belongs to, ``rank`` is ``None`` in the calling process.  Start and
end are ``time.perf_counter()`` readings, which on Linux is one monotonic
clock for every process, so spans recorded inside forked ranks line up with
the caller's.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterable, Iterator


class Tracer:
    """Records spans in memory; the benchmark writes them out at the end."""

    def __init__(self, rank: int | None = None):
        self.rank = rank
        self.op: int | None = None
        self.spans: list[tuple] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)  # keeps indices stable while nested spans open
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op, self.rank)

    def adopt(self, spans: Iterable[tuple], op: int, parent: int | None) -> None:
        """Take over spans a rank recorded, under this tracer's ``parent``."""
        base = len(self.spans)
        for name, start, end, inner, _, rank in spans:
            self.spans.append(
                (name, start, end, parent if inner is None else base + inner,
                 op, rank)
            )


def span_dict(span: tuple) -> dict:
    name, start, end, parent, op, rank = span
    return {"name": name, "start": start, "end": end, "parent": parent,
            "op": op, "rank": rank}


def per_op_seconds(spans: Iterable[tuple]) -> dict[str, list[float]]:
    """Per span name, one value per op: the slowest rank's summed duration."""
    total: dict[tuple, float] = defaultdict(float)
    for name, start, end, _, op, rank in spans:
        total[name, op, rank] += end - start
    slowest: dict[tuple, float] = {}
    for (name, op, _), seconds in total.items():
        slowest[name, op] = max(slowest.get((name, op), 0.0), seconds)
    out: dict[str, list[float]] = defaultdict(list)
    for (name, _), seconds in sorted(slowest.items(), key=lambda kv: kv[0][1]):
        out[name].append(seconds)
    return out


def summary(samples: list[float]) -> dict:
    """Median with n, quartiles, min and the highest percentile that still
    has ten samples beyond it (absent below 20 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 2:
        q1, med, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = med = q3 = ordered[0]
    out = {"n": n, "median": med, "q1": q1, "q3": q3, "min": ordered[0]}
    if n >= 20:
        out["tail_percentile"] = 100.0 * (n - 10) / n
        out["tail_value"] = ordered[n - 11]
    return out
