"""Span recording and self-time attribution for the traced runs.

The benchmark's own spans wrap public calls that the program does not
trace itself (figure compute/report, digests, checkpoint and lake I/O,
the probe stages, the service hooks).  They are recorded as plain
``(start, end, name)`` intervals on ``time.perf_counter``, the clock the
program's :class:`~repro.telemetry.clock.MonotonicClock` spans use too,
so both kinds of span lie on one timeline and can be merged.

:func:`attribute` turns that timeline into per-layer self times: every
instant inside a root window is charged to the most recently started
span still open at that instant, and to ``unattributed`` when only the
root is open.  For properly nested spans that is exactly "duration minus
the part the children cover"; where spans from two threads overlap (a
run that starts executing before its submitter has read the reply) the
later one wins, so no instant is counted twice and the parts always sum
to the roots.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

Interval = Tuple[float, float, str]

#: Program span name -> layer metric stem (``<stem>_s`` is the metric).
PROGRAM_SPANS = {
    "run": "core.dispatch",
    "resume": "core.dispatch",
    "dispatch": "core.dispatch",
    "day": "core.dispatch",
    "flows": "core.dispatch",
    "merge": "core.merge",
    "generate": "synthesis.generate",
    "hourly": "synthesis.hourly",
    "expand": "synthesis.expand",
    "aggregate": "analytics.aggregate",
    "stage1": "analytics.stage1",
    "lake_read_range": "dataflow.lake_read",
}

UNATTRIBUTED = "unattributed"


class Tracer:
    """Collects intervals and counters.  Spans may close on several
    threads (a served run executes on the server's worker thread while
    the client thread submits): ``list.append`` is atomic under the
    interpreter lock, and each counter is written from one thread only."""

    def __init__(self) -> None:
        self.intervals: List[Interval] = []
        self.counts: Counter = Counter()
        #: Self seconds per layer stem spent inside pool workers.
        self.worker_layers: Dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.intervals.append((start, time.perf_counter(), name))

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def add_program_spans(self, records: Iterable, *, in_process: bool) -> None:
        """Merge a run's :class:`SpanRecord` forest into the timeline.

        Task trees (rooted at a ``day`` span) ran in pool workers when
        ``in_process`` is false: they are not on this process's timeline,
        so their self times (duration minus direct children) accumulate
        in :attr:`worker_layers` instead.
        """
        records = list(records)
        children: Dict[Optional[int], List] = defaultdict(list)
        for record in records:
            children[record.parent_id].append(record)
        task_ids = set()
        stack = [r for r in children[None] if r.name == "day"]
        while stack:
            record = stack.pop()
            task_ids.add(record.span_id)
            stack.extend(children[record.span_id])
        for record in records:
            stem = PROGRAM_SPANS.get(record.name, "core.dispatch")
            if in_process or record.span_id not in task_ids:
                self.intervals.append((record.start, record.end, stem))
            else:
                covered = sum(c.duration for c in children[record.span_id])
                self.worker_layers[stem] += record.duration - covered


def attribute(
    intervals: Iterable[Interval], roots: Iterable[Tuple[float, float]]
) -> Dict[str, float]:
    """Self time per span name inside the (disjoint) root windows.

    Returns a mapping that always holds ``unattributed`` and whose
    values sum to the total root duration.
    """
    spans = [(start, end, name) for start, end, name in intervals if end > start]
    root_list = [(start, end, UNATTRIBUTED) for start, end in roots]
    entries = root_list + spans
    is_root = [True] * len(root_list) + [False] * len(spans)
    events = []
    for index, (start, end, _) in enumerate(entries):
        # At equal times ends sort before starts, and an outer span
        # (later end) starts before the spans it contains.
        events.append((start, 1, -end, index))
        events.append((end, 0, 0.0, index))
    events.sort()
    totals: Dict[str, float] = defaultdict(float)
    totals[UNATTRIBUTED] = 0.0
    active: List[int] = []
    roots_open = 0
    previous = None
    for moment, kind, _, index in events:
        if previous is not None and roots_open and moment > previous:
            totals[entries[active[-1]][2]] += moment - previous
        previous = moment
        if kind == 1:
            active.append(index)
            roots_open += is_root[index]
        else:
            for position in range(len(active) - 1, -1, -1):
                if active[position] == index:
                    del active[position]
                    break
            roots_open -= is_root[index]
    return dict(totals)


@contextlib.contextmanager
def patched(*replacements: Tuple[object, str, object]) -> Iterator[None]:
    """Temporarily set ``owner.name = value`` for each triple."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)
