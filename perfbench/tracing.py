"""Span tracing for the benchmark's traced run.

The program under test has no tracing of its own, so the benchmark wraps
the public callables at each layer boundary (see ``LAYERS`` in
``workloads.py``) and records one span per call.  Spans live in memory
and are summarised or written out only after the measured loop ends.

Only calls made inside a *root* span are recorded: the benchmark opens a
root around each measured ``train_batch`` or ``serve`` call, so set-up,
warm-up and evaluation work never reach the layer totals.

Timing arithmetic, for one layer:

- ``busy_s`` sums the layer's outermost spans (a span nested inside a
  span of the same layer is not counted twice);
- ``self_s`` sums each span's duration minus the part of it covered by
  its child spans;
- ``share`` is ``self_s`` over the summed root wall time.

Every recorded span except the roots belongs to a layer, so the layer
shares plus ``unattributed_share`` (root wall not covered by any layer
span) add up to one.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``count(args, kwargs, result, before) -> {counter: increment}``.
CountFn = Callable[[tuple, dict, Any, Any], Dict[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1  # index into Tracer.spans, -1 for a root
    root: int = -1  # index of the root span this span belongs to
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Layer:
    """One wrapped callable: ``getattr(owner, attr)`` is replaced while
    the tracer is installed.  Several targets may share a layer name."""

    name: str
    owner: Any  # a module or a class
    attr: str
    count: Optional[CountFn] = None
    #: ``before(args) -> state`` read just before the call, handed to
    #: ``count`` (for counters that are deltas of program state).
    before: Optional[Callable[[tuple], Any]] = None


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, layers: Sequence[Layer] = ()) -> None:
        self.layers = list(layers)
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str, args: Dict[str, Any]) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        root = self.spans[parent].root if parent >= 0 else index
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, root=root, args=args)
        )
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def root(self, name: str, **args):
        """A root span around one measured operation."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        index = self._open(name, args)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            state = layer.before(args) if layer.before is not None else None
            index = tracer._open(layer.name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if layer.count is not None:
                for key, value in layer.count(args, kwargs, result, state).items():
                    tracer.counters[key] += value
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        """Replace every layer target with its recording wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            # Read the owner's own __dict__, so an inherited attribute is
            # refused (KeyError) instead of being shadowed by the wrapper.
            original = vars(layer.owner)[layer.attr]
            self._saved.append((layer.owner, layer.attr, original))
            setattr(layer.owner, layer.attr, self._wrap(layer, original))

    def restore(self) -> None:
        """Put every original callable back (idempotent)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when no layer target is still a tracer wrapper."""
        return not any(
            getattr(vars(layer.owner)[layer.attr], "__wrapped_by_tracer__", False)
            for layer in self.layers
        )

    # -- summaries -----------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls``, ``busy_s``, ``self_s``, ``share`` plus the
        tracer-wide ``wall_s`` and ``unattributed_share``."""
        return summarize(self.spans)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Layer totals from a closed span list (see the module docstring)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    wall = sum(spans[i].duration for i in roots)
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0, "share": 0.0}
    )
    covered = 0.0
    for index, span in enumerate(spans):
        if span.parent < 0:
            covered += _union_length(children[index])
            continue
        stats = layers[span.name]
        stats["calls"] += 1
        stats["self_s"] += span.duration - _union_length(children[index])
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            stats["busy_s"] += span.duration
    for stats in layers.values():
        stats["share"] = stats["self_s"] / wall if wall > 0 else 0.0
    result = dict(layers)
    result["trace"] = {
        "wall_s": wall,
        "roots": float(len(roots)),
        "unattributed_share": (wall - covered) / wall if wall > 0 else 0.0,
    }
    return result


def chrome_trace(spans: Sequence[Span], extra: Sequence[dict] = ()) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete events, microseconds), which
    Perfetto and ``chrome://tracing`` open offline.  Each event carries
    its span index, parent index and the root span's arguments (the batch
    or request ids)."""
    t0 = min((s.start for s in spans), default=0.0)
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": "measured spans (wall clock)"}}]
    for index, span in enumerate(spans):
        args = dict(spans[span.root].args) if span.root >= 0 else {}
        args.update(span.args)
        args.update({"span": index, "parent": span.parent})
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - t0) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    events.extend(extra)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (NaN if empty)."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def min_samples_for(q: float, beyond: int = 10) -> int:
    """Smallest sample count leaving ``beyond`` samples above the
    ``q``-th percentile (1000 for p99 with ten beyond)."""
    return int(math.ceil(beyond * 100.0 / (100.0 - q) - 1e-9))
