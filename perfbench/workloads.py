"""Deterministic inputs for the benchmark's three workloads.

Each workload is a graph the service loads at set-up, optional set-up
requests (the standing subscriptions of ``stream-ingest``), and a fixed
sequence of closed-loop *rounds*.  :func:`build` derives all of it from
the workload seed and a size, so the untraced run, the traced run and
the answer checker replay exactly the same request lines.

The graphs and the order of the request design are fixed (dataset seed
0, the dense shape's seed 7, :data:`DESIGN_SEED`); the workload seed
drives the cache-defeating gap offsets, estimate seeds, late arrivals
and one-shot query offsets.  Offsets are fractions of a time unit:
timestamps are integers, so a gap of ``g + 0.37`` admits exactly the
matches of gap ``g`` while giving the pattern its own fingerprint.  So
every seed misses every cache, yet a run's work, and where in the run
the garbage collector strikes, do not depend on the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ALGORITHMS",
    "GRAPH",
    "Round",
    "WORKLOADS",
    "Workload",
    "build",
    "default_size",
]

WORKLOADS = ("paper-cold", "dense-export", "stream-ingest")

#: The three TCSM algorithms; the checker's reference for a request run
#: with ``ALGORITHMS[i]`` is computed with ``ALGORITHMS[i + 1]``.
ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")

#: Name the graph is registered under.
GRAPH = "g"

DAY = 86_400

#: Seeds the fixed interleaving of each workload's request design.
DESIGN_SEED = 2025

# -- paper-cold ----------------------------------------------------------
#: Exp-10 gaps crossed with the nine Figure-12 patterns and the three
#: algorithms: one block of 108 requests.
PAPER_GAPS = (DAY // 2, DAY, 2 * DAY, 3 * DAY)
PAPER_SHAPES = ("count", "limit", "topk", "estimate")
PAPER_BLOCK = 3 * 3 * len(ALGORITHMS) * len(PAPER_GAPS)
LIMIT = 5
TOP_K = 5
PROBES = 64

# -- dense-export --------------------------------------------------------
#: Gap chains on the A-B-A-B path's edges ``(earlier, later, gap)``: a
#: tight gap on one pair, optionally a loose one on the next; 6k-10k
#: matches each on the dense graph.
DENSE_GAP_CHAINS = (
    ((0, 1, 10),),
    ((1, 2, 10),),
    ((0, 1, 20), (1, 2, 4000)),
    ((0, 1, 15), (1, 2, 6000)),
    ((0, 1, 12), (1, 2, 8000)),
    ((1, 2, 12),),
)
DENSE_BLOCK = len(DENSE_GAP_CHAINS) * len(ALGORITHMS)
DENSE_VERTICES = 80
DENSE_DEGREE = 12
DENSE_TIMES_PER_PAIR = 10
DENSE_HORIZON = 10_000
DENSE_SEED = 7

# -- stream-ingest -------------------------------------------------------
BATCH = 64
#: Share of streamed edges that arrive late, and by how many batches.
LATE_SHARE = 0.02
LATE_MAX_BATCHES = 3
#: One one-shot query after every this many ingest batches.
QUERY_EVERY = 8
QUEUE_CAPACITY = 1_000_000
#: Standing subscriptions: (labels, edges, constraints).
STREAM_SUBSCRIPTIONS = (
    (("A", "B", "A"), ((0, 1), (1, 2)), ((0, 1, 60),)),
    (("B", "A", "B"), ((0, 1), (1, 2)), ((0, 1, 60),)),
    (("A", "B", "A", "B"), ((0, 1), (1, 2), (2, 3)), ((0, 1, 40), (1, 2, 40))),
    (("A", "B", "B"), ((0, 1), (0, 2)), ((0, 1, 30),)),
)
STREAM_QUERY_SHAPES = ("count", "limit", "topk", "estimate", "enumerate")
STREAM_QUERY_GAPS = (20, 30)


@dataclass(frozen=True)
class Round:
    """Request lines the client sends back to back, each after the last reply.

    ``kind`` is ``"query"`` (one query line) or ``"stream"`` (one ingest
    line plus a poll per subscription); ``units`` is what the round adds
    to throughput: 1 for a query on the query workloads, the batch's edge
    count for a stream round, 0 for a query on ``stream-ingest``.
    """

    kind: str
    lines: tuple[str, ...]
    units: int


@dataclass
class Workload:
    """Everything one run replays, from one (name, seed, size)."""

    name: str
    labels: tuple[str, ...]
    #: Edges registered at set-up.
    edges: list[tuple[int, int, int]]
    rounds: list[Round]
    setup_lines: tuple[str, ...] = ()
    #: The whole stream, for the checker (``stream-ingest`` only).
    final_edges: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def latency_kind(self) -> str:
        """The round kind whose times give the latency percentiles."""
        return "stream" if self.name == "stream-ingest" else "query"

    @property
    def payload_op(self) -> str:
        """The op whose replies give ``response_bytes_per_match``."""
        return "poll" if self.name == "stream-ingest" else "query"


def default_size(name: str, seconds: int) -> int:
    """The size that makes a run measure about *seconds* seconds.

    Sizes are whole design blocks, so every run sees the same mix:
    requests for ``paper-cold``, patterns for ``dense-export`` and
    vertices of the streamed graph for ``stream-ingest``.  Calibrated on
    a 2-core x86 container with Python 3.11.
    """
    if name == "paper-cold":
        return PAPER_BLOCK * max(1, round(seconds / 6))
    if name == "dense-export":
        return DENSE_BLOCK * max(1, round(seconds / 4))
    if name == "stream-ingest":
        return max(40, 20 * round(seconds * 32 / 20))
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, seed: int, size: int) -> Workload:
    """The workload *name* at *size*, generated from *seed*."""
    rng = random.Random(f"{name}:{seed}")
    if name == "paper-cold":
        return _paper_cold(rng, size)
    if name == "dense-export":
        return _dense_export(rng, size)
    if name == "stream-ingest":
        return _stream_ingest(rng, size)
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# request lines
# ----------------------------------------------------------------------
def _pattern(
    labels: tuple[str, ...],
    edges: tuple[tuple[int, int], ...],
    constraints: list[tuple[int, int, float]],
) -> dict[str, Any]:
    return {
        "vertices": [{"label": label} for label in labels],
        "edges": [{"source": u, "target": v, "label": None} for u, v in edges],
        "constraints": [
            {"earlier": a, "later": b, "gap": gap} for a, b, gap in constraints
        ],
    }


def _query_line(
    pattern: dict[str, Any],
    shape: str,
    algorithm: str,
    codegen: bool,
    estimate_seed: int,
) -> str:
    request: dict[str, Any] = {
        "op": "query",
        "graph": GRAPH,
        "pattern": pattern,
        "algorithm": algorithm,
    }
    if shape == "count":
        request["count_only"] = True
    elif shape == "limit":
        request["limit"] = LIMIT
    elif shape == "topk":
        request["limit"] = TOP_K
        request["order_by"] = "earliest"
    elif shape == "estimate":
        request["mode"] = "estimate"
        request["probes"] = PROBES
        request["seed"] = estimate_seed
    elif shape != "enumerate":
        raise ValueError(f"unknown answer shape {shape!r}")
    if codegen and shape != "estimate":
        request["codegen"] = True
    return json.dumps(request)


def _interleave(block: list[Any], size: int) -> list[Any]:
    """*size* items: copies of *block*, each in a fixed shuffled order."""
    design = random.Random(DESIGN_SEED)
    sequence: list[Any] = []
    while len(sequence) < size:
        sequence.extend(design.sample(block, len(block)))
    return sequence[:size]


def _offsets(rng: random.Random, count: int) -> list[float]:
    """*count* distinct fractional offsets in (0, 1), in seeded order."""
    slots = rng.sample(range(1, count + 1), count)
    return [slot / (count + 1) for slot in slots]


# ----------------------------------------------------------------------
# paper-cold
# ----------------------------------------------------------------------
def _paper_cold(rng: random.Random, size: int) -> Workload:
    from repro.datasets import load_dataset, paper_constraints, paper_query

    graph = load_dataset("CM", scale=1.0)
    block = []
    for qi in (1, 2, 3):
        query = paper_query(qi)
        labels = tuple(str(query.label(u)) for u in query.vertices())
        edges = tuple(query.edges)
        for tj in (1, 2, 3):
            for a, algorithm in enumerate(ALGORITHMS):
                for g, gap in enumerate(PAPER_GAPS):
                    shape = PAPER_SHAPES[(qi + tj + a + g) % len(PAPER_SHAPES)]
                    codegen = (qi + 2 * tj + a + g) % 3 == 0
                    triples = [
                        (c.earlier, c.later, c.gap)
                        for c in paper_constraints(
                            tj, num_edges=query.num_edges, gap=gap
                        )
                    ]
                    block.append((labels, edges, triples, shape, algorithm, codegen))
    sequence = _interleave(block, size)
    rounds = []
    for offset, (labels, edges, triples, shape, algorithm, codegen) in zip(
        _offsets(rng, size), sequence
    ):
        pattern = _pattern(
            labels, edges, [(a, b, gap + offset) for a, b, gap in triples]
        )
        line = _query_line(
            pattern, shape, algorithm, codegen, rng.randrange(2**31)
        )
        rounds.append(Round("query", (line,), 1))
    return Workload(
        name="paper-cold",
        labels=tuple(str(label) for label in graph.labels),
        edges=[tuple(edge) for edge in graph.edges()],
        rounds=rounds,
    )


# ----------------------------------------------------------------------
# dense-export
# ----------------------------------------------------------------------
def dense_edges(
    n: int,
    degree: int = DENSE_DEGREE,
    times_per_pair: int = DENSE_TIMES_PER_PAIR,
    horizon: int = DENSE_HORIZON,
    seed: int = DENSE_SEED,
) -> tuple[tuple[str, ...], list[tuple[int, int, int]]]:
    """The two-label dense graph: *degree* targets, several times per pair.

    With the defaults this is the dense graph of ``bench_topk.py`` (80
    vertices, 9.6k temporal edges); duplicate ``(u, v, t)`` draws are
    dropped, so every edge is distinct.
    """
    rng = random.Random(seed)
    labels = tuple("A" if i % 2 == 0 else "B" for i in range(n))
    edges: dict[tuple[int, int, int], None] = {}
    for u in range(n):
        for v in rng.sample([v for v in range(n) if v != u], degree):
            for _ in range(times_per_pair):
                edges[(u, v, rng.randrange(0, horizon))] = None
    return labels, list(edges)


def _dense_export(rng: random.Random, size: int) -> Workload:
    labels, edges = dense_edges(DENSE_VERTICES)
    path = (("A", "B", "A", "B"), ((0, 1), (1, 2), (2, 3)))
    # One block: every gap chain under every algorithm, a fixed half of
    # them compiled.
    block = [
        (chain, algorithm, (c + a) % 2 == 1)
        for c, chain in enumerate(DENSE_GAP_CHAINS)
        for a, algorithm in enumerate(ALGORITHMS)
    ]
    sequence = _interleave(block, size)
    lines: list[str] = []
    pending: str | None = None
    for (chain, algorithm, codegen), offset in zip(
        sequence, _offsets(rng, size)
    ):
        pattern = _pattern(*path, [(a, b, gap + offset) for a, b, gap in chain])
        enumerate_line = _query_line(pattern, "enumerate", algorithm, codegen, 0)
        lines.append(enumerate_line)
        lines.append(_query_line(pattern, "count", algorithm, codegen, 0))
        if pending is not None:
            # An exact repeat of the previous enumeration: a result-cache
            # hit that still pays encode and serialise.
            lines.append(pending)
        pending = enumerate_line
    if pending is not None:
        lines.append(pending)
    return Workload(
        name="dense-export",
        labels=labels,
        edges=edges,
        rounds=[Round("query", (line,), 1) for line in lines],
    )


# ----------------------------------------------------------------------
# stream-ingest
# ----------------------------------------------------------------------
def subscription_lines() -> tuple[str, ...]:
    return tuple(
        json.dumps(
            {
                "op": "subscribe",
                "graph": GRAPH,
                "subscription_id": f"s{i}",
                "queue_capacity": QUEUE_CAPACITY,
                "pattern": _pattern(labels, edges, list(constraints)),
            }
        )
        for i, (labels, edges, constraints) in enumerate(STREAM_SUBSCRIPTIONS)
    )


def _stream_ingest(rng: random.Random, size: int) -> Workload:
    labels, edges = dense_edges(size)
    edges.sort(key=lambda e: (e[2], e[0], e[1]))
    initial = len(edges) // 4
    rest = edges[initial:]
    # A small seeded share arrives up to LATE_MAX_BATCHES batches late.
    late = sorted(rng.sample(range(len(rest)), int(len(rest) * LATE_SHARE)))
    order = [float(i) for i in range(len(rest))]
    for i in late:
        order[i] += BATCH * rng.uniform(1, LATE_MAX_BATCHES)
    stream = [edge for _, edge in sorted(zip(order, rest))]
    polls = tuple(
        json.dumps({"op": "poll", "subscription_id": f"s{i}"})
        for i in range(len(STREAM_SUBSCRIPTIONS))
    )
    path = (("A", "B", "A", "B"), ((0, 1), (1, 2), (2, 3)))
    batches = math.ceil(len(stream) / BATCH)
    queries = batches // QUERY_EVERY
    offsets = _offsets(rng, max(1, queries))
    rounds = []
    for b in range(batches):
        batch = stream[b * BATCH : (b + 1) * BATCH]
        ingest = json.dumps(
            {"op": "ingest", "graph": GRAPH, "edges": [list(e) for e in batch]}
        )
        rounds.append(Round("stream", (ingest, *polls), len(batch)))
        q, due = divmod(b + 1, QUERY_EVERY)
        if due == 0:
            k = q - 1
            gap = STREAM_QUERY_GAPS[k % len(STREAM_QUERY_GAPS)] + offsets[k]
            pattern = _pattern(*path, [(0, 1, gap), (1, 2, gap)])
            line = _query_line(
                pattern,
                STREAM_QUERY_SHAPES[k % len(STREAM_QUERY_SHAPES)],
                ALGORITHMS[k % len(ALGORITHMS)],
                k % 2 == 1,
                rng.randrange(2**31),
            )
            rounds.append(Round("query", (line,), 0))
    return Workload(
        name="stream-ingest",
        labels=labels,
        edges=edges[:initial],
        rounds=rounds,
        setup_lines=subscription_lines(),
        final_edges=edges,
    )
