"""The per-layer ledger: spans recorded around public calls, and self time.

A traced run installs timers (:func:`install_probes`) around the public
functions of each serving layer.  Every timed call becomes a
:class:`Span` with a parent: the span open on the calling thread, or,
for a call on a pool thread, the span the main thread has open (the
executor's fan-out, which blocks on its workers).  Spans stay in memory
and are reduced once the run ends.

A layer's *self time* under one parent is the union of its spans'
intervals minus the union of their children's intervals.  Partition
spans of one fan-out run on two threads at once, so the union, not the
sum, is what a round spends in them.  A round's own self time is the
part of it no layer covers: ``ledger.unaccounted_ratio``, a measurement
defect when large.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

__all__ = [
    "GcMeter",
    "Ledger",
    "Span",
    "covered",
    "install_probes",
    "layer_self_times",
]

#: Name of the root span the client opens around each round.
ROUND = "round"


@dataclass
class Span:
    """One timed call: layer name, interval, parent index, round index."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    round: int | None = None


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals* (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_self_times(
    spans: list[Span],
) -> tuple[dict[str, dict[int | None, float]], float, float]:
    """Reduce *spans* to per-layer self time, keyed by round.

    Returns ``(self_by_layer, round_seconds, unaccounted_seconds)``:
    ``self_by_layer[name][round]`` is the layer's self time within that
    round (``None`` for spans outside any round, e.g. set-up), and the
    two totals are summed over the ``round`` spans.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)

    def child_cover(indices: list[int]) -> float:
        return covered(
            [
                (spans[c].start, spans[c].end)
                for i in indices
                for c in children.get(i, ())
            ]
        )

    self_by_layer: dict[str, dict[int | None, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    round_seconds = 0.0
    unaccounted = 0.0
    # Group siblings by (parent, name): same-layer siblings may overlap
    # (partitions on two threads), so each group is measured as a union.
    groups: dict[tuple[int | None, str], list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.name == ROUND:
            duration = span.end - span.start
            round_seconds += duration
            unaccounted += duration - child_cover([index])
        else:
            groups[(span.parent, span.name)].append(index)
    for (_, name), indices in groups.items():
        union = covered([(spans[i].start, spans[i].end) for i in indices])
        own = max(0.0, union - child_cover(indices))
        self_by_layer[name][spans[indices[0]].round] += own
    return self_by_layer, round_seconds, unaccounted


class Ledger:
    """In-memory span recorder shared by the main thread and pool threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._append_lock = threading.Lock()
        self.current_round: int | None = None
        #: Return values tapped from public calls (stats, reports, hits).
        self.taps: dict[str, list[Any]] = defaultdict(list)

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, start: float | None = None) -> int:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stack()
        if stack:
            parent: int | None = stack[-1]
        elif self._main_stack:
            # A pool thread: its caller is whatever the main thread is
            # blocked in (the executor's fan-out).
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(
            name,
            time.perf_counter() if start is None else start,
            parent=parent,
            round=self.current_round,
        )
        with self._append_lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, end: float | None = None) -> None:
        self.spans[index].end = time.perf_counter() if end is None else end
        popped = self._stack().pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed out of order"
            )

    def timed(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """*func* wrapped in a span called *name*."""

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper


class GcMeter:
    """``gc.callbacks`` hook: pause seconds and generation-2 collections."""

    def __init__(self) -> None:
        self.pause_seconds = 0.0
        self.gen2_collections = 0
        self._started: float | None = None

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_seconds += time.perf_counter() - self._started
            self._started = None
            if info.get("generation") == 2:
                self.gen2_collections += 1

    @contextmanager
    def installed(self) -> Iterator["GcMeter"]:
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)


@contextmanager
def install_probes(ledger: Ledger) -> Iterator[None]:
    """Time the public calls of every layer for the duration of the block.

    Each probe replaces a module- or class-level name with a wrapper;
    all are restored on exit.  Module-level names are patched where the
    caller looks them up (``repro.service.server.pattern_from_dict``,
    ``repro.service.executor.invoke_run_sink``, ...).
    """
    import repro.core.e2e as e2e
    import repro.core.engine as engine
    import repro.core.v2v as v2v
    import repro.service.executor as executor
    import repro.service.server as server
    from repro.core.sinks import CountSink
    from repro.service import GraphRegistry, PlanCache, ResultCache
    from repro.streaming import Emission, StreamingEngine

    patches: list[tuple[Any, str, Any]] = []

    def patch(target: Any, attr: str, replacement: Any) -> None:
        patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, replacement)

    def timed(target: Any, attr: str, name: str) -> None:
        patch(target, attr, ledger.timed(name, getattr(target, attr)))

    def tapped(
        target: Any, attr: str, name: str, keep: Callable[[Any], Any]
    ) -> None:
        original = ledger.timed(name, getattr(target, attr))

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            ledger.taps[attr].append(keep(result))
            return result

        patch(target, attr, wrapper)

    patch(
        server,
        "json",
        SimpleNamespace(
            loads=ledger.timed("server.decode", server.json.loads),
            dumps=ledger.timed("server.serialize", server.json.dumps),
        ),
    )
    timed(server, "pattern_from_dict", "server.decode")
    timed(server.TCSMService, "submit", "service.self")
    timed(server, "pattern_fingerprint", "plans.lookup")
    timed(server, "options_fingerprint", "plans.lookup")
    timed(server.ServiceResult, "to_dict", "server.encode")
    timed(Emission, "to_dict", "server.encode")
    timed(executor.QueryExecutor, "run_matcher", "executor.self")
    timed(engine, "estimate_with_ci", "core.estimate")
    timed(v2v, "compile_enumerator", "core.codegen_compile")
    timed(e2e, "compile_enumerator", "core.codegen_compile")
    timed(StreamingEngine, "poll", "streaming.poll")
    timed(GraphRegistry, "register", "registry.register")
    tapped(StreamingEngine, "ingest", "streaming.ingest", lambda report: report)
    tapped(ResultCache, "get", "cache.lookup", lambda value: value is not None)
    timed(ResultCache, "put", "cache.lookup")

    get_or_build = PlanCache.get_or_build

    def timed_get_or_build(self: Any, key: Any, build: Any) -> Any:
        index = ledger.open("plans.lookup")
        try:
            result = get_or_build(self, key, ledger.timed("core.prepare", build))
        finally:
            ledger.close(index)
        ledger.taps["get_or_build"].append(result[1])
        return result

    patch(PlanCache, "get_or_build", timed_get_or_build)

    invoke_run_sink = executor.invoke_run_sink

    def timed_invoke_run_sink(matcher: Any, ctx: Any, sink: Any) -> None:
        name = (
            "core.enumerate_count"
            if isinstance(sink, CountSink)
            else "core.enumerate_collect"
        )
        index = ledger.open(name)
        try:
            invoke_run_sink(matcher, ctx, sink)
        finally:
            ledger.close(index)

    patch(executor, "invoke_run_sink", timed_invoke_run_sink)

    query = server.TCSMService.query

    def tapped_query(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = query(self, *args, **kwargs)
        if result.result_cache != "hit" and result.estimate is None:
            # Only the counters of executed enumerations; keeping the
            # result would keep its matches alive.
            ledger.taps["query"].append(result.stats)
        return result

    patch(server.TCSMService, "query", tapped_query)
    try:
        yield
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)
