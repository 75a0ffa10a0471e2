"""Shared machinery of the benchmark: spans, self-time attribution, statistics.

Spans are recorded by the benchmark's own code around each call into one of
the program's layers; the program itself carries no extra instrumentation.
A span's layer is the part of its name before the first dot
(``core.card_fit`` belongs to ``core``).  Spans named ``run`` or ``run.*``
only group phases: time inside them that no layer span covers is the
``unexplained_s`` remainder.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time
from pathlib import Path

#: Layers whose self time the traced run reports, in report order.  ``bench``
#: is the benchmark's own work (input generation, oracle, answer parsing).
LAYERS = ("datasets", "sets", "core", "infer", "serve", "reliability", "cli", "bench")


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "rid", "span_id", "parent", "start")

    def __init__(self, tracer: "SpanTracer", name: str, rid):
        self.tracer = tracer
        self.name = name
        self.rid = rid

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        self.parent = stack[-1] if stack else None
        self.span_id = next(tracer._ids)
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        self.tracer._stack().pop()
        # list.append is atomic under the interpreter lock.
        self.tracer.spans.append(
            (self.span_id, self.parent, self.name, self.rid, self.start, end)
        )
        return False


class SpanTracer:
    """In-memory span recorder; a disabled tracer records nothing.

    Each span holds an id, its parent's id, a name, a request id shared by
    the spans of one operation, and perf-counter start and end times.
    Threads started by a workload call :meth:`adopt` with the id of the span
    that spawned them, so their spans nest under it.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, rid=None):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, rid)

    def adopt(self, parent_id) -> None:
        """Make ``parent_id`` the parent of this thread's top-level spans."""
        if self.enabled and parent_id is not None:
            self._stack().append(parent_id)

    def current(self):
        stack = self._stack() if self.enabled else ()
        return stack[-1] if stack else None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, rid, start, end in sorted(
                self.spans, key=lambda span: span[4]
            ):
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "rid": rid, "start": start, "end": end}
                    )
                )
                handle.write("\n")


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "" if head == "run" else head


def self_times(spans: list[tuple], root_id) -> tuple[dict[str, float], float, float]:
    """Attribute the root span's wall time to layers.

    Sweeps the root's interval; at every instant the time goes to the active
    spans that have no active child (the leaves), split equally when several
    run at once (concurrent connections), so the layer self times plus the
    unexplained remainder add up to the wall time exactly.  Returns
    ``(self_seconds_by_layer, unexplained_s, wall_s)``.
    """
    by_id = {span[0]: span for span in spans}
    root = by_id[root_id]
    wall = root[5] - root[4]
    events = []
    for span_id, parent, name, _rid, start, end in spans:
        if span_id == root_id or end <= start:
            continue
        events.append((start, 1, span_id))
        events.append((end, 0, span_id))
    events.sort()
    # Invariant: the effective parent of an active span is active (the root
    # always is); a span ending before its children hands them upwards.
    parent_of: dict[int, int] = {}
    children: dict[int, set[int]] = {root_id: set()}
    active = {root_id}
    leaves = {root_id}
    totals = {layer: 0.0 for layer in LAYERS}
    unexplained = 0.0
    clock = root[4]
    for moment, is_start, span_id in events:
        moment = min(max(moment, root[4]), root[5])
        elapsed = moment - clock
        if elapsed > 0:
            share = elapsed / len(leaves)
            for leaf in leaves:
                layer = layer_of(by_id[leaf][2])
                if layer:
                    totals[layer] = totals.get(layer, 0.0) + share
                else:
                    unexplained += share
            clock = moment
        if is_start:
            parent = by_id[span_id][1]
            if parent not in active:
                parent = root_id
            parent_of[span_id] = parent
            children[parent].add(span_id)
            children[span_id] = set()
            leaves.discard(parent)
            active.add(span_id)
            leaves.add(span_id)
        elif span_id in active:
            active.discard(span_id)
            leaves.discard(span_id)
            parent = parent_of.pop(span_id)
            orphans = children.pop(span_id)
            for orphan in orphans:
                parent_of[orphan] = parent
            children[parent].discard(span_id)
            children[parent] |= orphans
            if not children[parent]:
                leaves.add(parent)
    unexplained += max(root[5] - clock, 0.0)
    return totals, unexplained, wall


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return float(statistics.median(values))


def q_error(estimate: float, truth: float) -> float:
    """max(e/t, t/e) with both sides floored at 1, as the paper scores it."""
    estimate = max(float(estimate), 1.0)
    truth = max(float(truth), 1.0)
    return max(estimate / truth, truth / estimate)


def geometric_mean(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sample")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Deadline:
    """Wall-clock budget of one measurement phase."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.end

    def elapsed(self) -> float:
        return time.perf_counter() - self.start
