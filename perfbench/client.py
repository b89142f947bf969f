"""One measured run, in a fresh process: set up, then serve the sequence.

The measured process is the JSONL server itself: the workload's request
lines are fed to :func:`repro.service.serve_stdio` one at a time, and
each reply line goes to a reply log.  ``serve_stdio`` reads the next
line only after it has written the last reply, so the replay is a
closed loop with one client on the main thread.  A round runs from its
first request line in to its last reply line out.

Before each round (outside it) the client times the calibration kernel
of :mod:`perfbench.speed`, so every time can be scaled to reference
seconds.  Decoding and checking the replies happens after the run, in
the parent (:mod:`perfbench.run`), so the client's own allocations never
trigger collections inside the measured process.  A traced run (``traced=True``)
installs the ledger's probes and a ``gc.callbacks`` hook; an untraced
run installs nothing.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import statistics
import threading
import time
from collections.abc import Iterator
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import IO, Any

from . import speed
from .ledger import ROUND, GcMeter, Ledger, install_probes, layer_self_times
from .workloads import GRAPH, Workload

__all__ = ["MAX_WORKERS", "SETUP_REPEATS", "run"]

#: Thread fan-out equal to the core count of the calibration machine.
MAX_WORKERS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7


def _hygiene() -> list[str]:
    """Threads or child processes still alive beside the main thread."""
    problems = [
        f"thread {thread.name!r} outlived its service"
        for thread in threading.enumerate()
        if thread is not threading.main_thread()
    ]
    problems += [
        f"child process {child.pid} outlived its service"
        for child in multiprocessing.active_children()
    ]
    return problems


def _setup(workload: Workload) -> tuple[Any, float]:
    """Construct the service, load and register the graph, subscribe."""
    from repro.graphs import TemporalGraph
    from repro.service import ServiceConfig, TCSMService

    started = time.perf_counter()
    service = TCSMService(ServiceConfig(max_workers=MAX_WORKERS, pool="thread"))
    service.load_graph(GRAPH, TemporalGraph(workload.labels, workload.edges))
    for line in workload.setup_lines:
        reply = service.submit(json.loads(line))
        if reply.get("status") != "ok":
            service.close()
            raise RuntimeError(f"set-up request failed: {reply}")
    return service, time.perf_counter() - started


class _Replay:
    """The request side and the reply side of one ``serve_stdio`` run.

    Iterating yields the request lines; ``write``/``flush`` take the
    replies.  Round boundaries are timed here: a round starts when its
    first line is handed over and ends when its last reply is flushed.
    """

    def __init__(
        self, workload: Workload, out: IO[str], ledger: Ledger | None
    ) -> None:
        self.workload = workload
        self.out = out
        self.ledger = ledger
        self.round_seconds: list[float] = []
        self.calibration_seconds: list[float] = []
        self._pending = 0
        self._begin = 0.0
        self._root = 0

    def __iter__(self) -> Iterator[str]:
        ledger = self.ledger
        for index, rnd in enumerate(self.workload.rounds):
            self._pending = len(rnd.lines)
            self.calibration_seconds.append(speed.sample())
            self._begin = time.perf_counter()
            if ledger is not None:
                ledger.current_round = index
                self._root = ledger.open(ROUND, self._begin)
            yield from rnd.lines

    def write(self, text: str) -> None:
        self.out.write(text)

    def flush(self) -> None:
        self.out.flush()
        self._pending -= 1
        if self._pending == 0:
            end = time.perf_counter()
            self.round_seconds.append(end - self._begin)
            if self.ledger is not None:
                self.ledger.close(self._root, end)
                self.ledger.current_round = None


def run(workload: Workload, traced: bool, replies: Path) -> dict[str, Any]:
    """Set up, serve every round, close; reply lines go to *replies*."""
    from repro.service import serve_stdio

    ledger = Ledger() if traced else None
    gc_meter = GcMeter()
    hygiene: list[str] = []
    with ExitStack() as stack:
        if ledger is not None:
            stack.enter_context(install_probes(ledger))
        setup_seconds = []
        setup_factors = []
        service = None
        for _ in range(SETUP_REPEATS):
            if service is not None:
                service.close()
                hygiene += _hygiene()
            samples = [speed.sample() for _ in range(2 * speed.WINDOW + 1)]
            setup_factors.append(speed.factors(samples)[speed.WINDOW])
            service, seconds = _setup(workload)
            setup_seconds.append(seconds)
        assert service is not None
        try:
            with replies.open("w", encoding="utf-8") as out:
                replay = _Replay(workload, out, ledger)
                with gc_meter.installed() if traced else nullcontext():
                    serve_stdio(service, replay, replay)
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        finally:
            service.close()
        hygiene += _hygiene()
    round_factors = speed.factors(replay.calibration_seconds)
    measured: dict[str, Any] = {
        "setup_seconds": setup_seconds,
        "setup_factors": setup_factors,
        "round_seconds": replay.round_seconds,
        "round_factors": round_factors,
        "calibration_seconds": replay.calibration_seconds,
        "peak_rss_mb": peak_rss_mb,
        "hygiene": hygiene,
    }
    if ledger is not None:
        measured["layers"] = layer_metrics(
            ledger, gc_meter, round_factors, statistics.median(setup_factors)
        )
    return measured


def layer_metrics(
    ledger: Ledger,
    gc_meter: GcMeter,
    round_factors: list[float],
    setup_factor: float,
) -> dict[str, float]:
    """Per-layer metrics of a traced run (values only; units in run.py).

    Layer times are reference seconds (see :mod:`perfbench.speed`) of
    self time per round that used the layer; ``registry.register_s`` is
    per registration.  Counts are per run, except the search counters,
    which are per executed enumeration.
    """
    self_by_layer, round_seconds, unaccounted = layer_self_times(ledger.spans)

    def per_round(name: str) -> float:
        values = [
            seconds / round_factors[key]
            for key, seconds in self_by_layer.get(name, {}).items()
            if key is not None
        ]
        return sum(values) / len(values) if values else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    stats = ledger.taps["query"]
    expanded = sum(s.timestamps_expanded for s in stats)
    filters = [bucket for s in stats for bucket in s.filters.values()]
    considered = sum(bucket.considered for bucket in filters)
    pruned = sum(bucket.pruned for bucket in filters)
    reports = ledger.taps["ingest"]
    plan_hits = ledger.taps["get_or_build"]
    cache_gets = ledger.taps["get"]
    return {
        "server.decode_s": per_round("server.decode"),
        "server.encode_s": per_round("server.encode"),
        "server.serialize_s": per_round("server.serialize"),
        "service.self_s": per_round("service.self"),
        "plans.lookup_s": per_round("plans.lookup"),
        "plans.hit_ratio": ratio(sum(plan_hits), len(plan_hits)),
        "core.prepare_s": per_round("core.prepare"),
        "core.codegen_compile_s": per_round("core.codegen_compile"),
        "core.codegen_compiles": float(
            sum(span.name == "core.codegen_compile" for span in ledger.spans)
        ),
        "cache.lookup_s": per_round("cache.lookup"),
        "cache.hit_ratio": ratio(sum(cache_gets), len(cache_gets)),
        "executor.self_s": per_round("executor.self"),
        "core.enumerate_count_s": per_round("core.enumerate_count"),
        "core.enumerate_collect_s": per_round("core.enumerate_collect"),
        "core.estimate_s": per_round("core.estimate"),
        "core.timestamps_expanded": ratio(expanded, len(stats)),
        "core.timestamps_skipped": ratio(
            sum(s.timestamps_skipped for s in stats), len(stats)
        ),
        "core.filter_survivor_ratio": ratio(considered - pruned, considered),
        "core.matches_per_expanded": ratio(
            sum(s.matches for s in stats), expanded
        ),
        "gc.pause_s": gc_meter.pause_seconds
        / statistics.median(round_factors)
        / len(round_factors),
        "gc.gen2_collections": float(gc_meter.gen2_collections),
        "streaming.ingest_s": per_round("streaming.ingest"),
        "streaming.poll_s": per_round("streaming.poll"),
        "streaming.emitted_per_edge": ratio(
            sum(r.emitted for r in reports), sum(r.new_edges for r in reports)
        ),
        "graphs.flushes": float(sum(r.flushes for r in reports)),
        "graphs.compactions": float(sum(r.compactions for r in reports)),
        "registry.register_s": sum(
            self_by_layer.get("registry.register", {}).values()
        )
        / setup_factor
        / SETUP_REPEATS,
        "ledger.unaccounted_ratio": ratio(unaccounted, round_seconds),
    }
