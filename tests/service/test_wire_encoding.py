"""Flat match rows from executor to wire: byte identity and GC footprint.

Answers are kept as :class:`~repro.core.MatchRows` and the JSONL loops
encode the match list straight from the rows.  The reply bytes must
stay exactly what ``json.dumps`` wrote for the list-of-dicts payload
built from :class:`~repro.core.Match` objects (the reference encoder
below), on both JSONL loops and for every answer shape.  Python callers
keep getting plain dicts and ``Match`` tuples.  And a cached answer
must hold no per-match garbage-collected objects.
"""

import asyncio
import gc
import io
import json
import pickle
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.core import Match, MatchRows, find_matches
from repro.graphs import (
    QueryGraph,
    TemporalConstraints,
    TemporalEdge,
    TemporalGraph,
    ensure_snapshot,
    pattern_to_dict,
)
from repro.service import (
    AsyncFrontConfig,
    ServiceConfig,
    ServiceResult,
    TCSMService,
    serve_stdio,
    serve_stdio_async,
)
from repro.service.server import _match_dicts, _matches_json

PATH = QueryGraph(["A", "B", "A", "B"], [(0, 1), (1, 2), (2, 3)])


def dense_graph(n=40, degree=6, times_per_pair=4, seed=11):
    rng = random.Random(seed)
    labels = ["A" if i % 2 == 0 else "B" for i in range(n)]
    graph = TemporalGraph(labels)
    for u in range(n):
        for v in rng.sample([v for v in range(n) if v != u], degree):
            for _ in range(times_per_pair):
                graph.add_edge(u, v, rng.randrange(0, 1000))
    return graph


def path_constraints(gap):
    return TemporalConstraints([(0, 1, gap)], num_edges=PATH.num_edges)


def legacy_matches(matches):
    """The reference encoder: the match list as built from Match objects."""
    return [
        {
            "vertices": list(match.vertex_map),
            "edges": [list(edge) for edge in match.edge_map],
        }
        for match in matches
    ]


@pytest.fixture(scope="module")
def graph():
    return ensure_snapshot(dense_graph())


@pytest.fixture()
def service(graph):
    with TCSMService(ServiceConfig(max_workers=2)) as svc:
        svc.load_graph("dense", graph)
        yield svc


def query_line(request_id, gap=300, **fields):
    request = {
        "op": "query",
        "id": request_id,
        "graph": "dense",
        "pattern": pattern_to_dict(PATH, path_constraints(gap)),
        **fields,
    }
    return json.dumps(request)


#: (id, extra request fields, whether the reply carries a match list).
SESSION = (
    ("enumerate", {}, True),
    ("limit", {"limit": 5}, True),
    ("topk", {"limit": 7, "order_by": "earliest"}, True),
    ("earliest", {"order_by": "earliest", "gap": 40}, True),
    ("count", {"count_only": True}, False),
    ("estimate", {"mode": "estimate", "probes": 16, "seed": 3}, False),
    ("empty", {"gap": 0, "limit": 0}, True),
    ("hit", {}, True),
    ("traced", {"trace": True, "gap": 60}, True),
)


def session_lines():
    lines = []
    for request_id, fields, _ in SESSION:
        fields = dict(fields)
        gap = fields.pop("gap", 300)
        lines.append(query_line(request_id, gap=gap, **fields))
    lines.append("[1, 2]")  # a non-object line: error envelope
    lines.append(json.dumps({"op": "shutdown"}))
    return "\n".join(lines) + "\n"


def run_loop(loop, service):
    out = io.StringIO()
    if loop == "sync":
        serve_stdio(service, io.StringIO(session_lines()), out)
    else:
        asyncio.run(
            serve_stdio_async(
                service,
                io.StringIO(session_lines()),
                out,
                AsyncFrontConfig(workers=1),
            )
        )
    return out.getvalue().splitlines(keepends=True)


class TestWireBytes:
    @pytest.mark.parametrize("loop", ["sync", "async"])
    def test_reply_lines_equal_legacy_json_dumps(
        self, loop, service, monkeypatch
    ):
        encoded = []
        to_dict = ServiceResult.to_dict

        def recording(self, include_matches=True, **kwargs):
            encoded.append((self, include_matches))
            return to_dict(self, include_matches, **kwargs)

        monkeypatch.setattr(ServiceResult, "to_dict", recording)
        lines = run_loop(loop, service)
        assert len(lines) == len(SESSION) + 2
        assert len(encoded) == len(SESSION)
        for (request_id, _, has_matches), line, (result, include) in zip(
            SESSION, lines, encoded
        ):
            assert include is has_matches
            payload = {
                "op": "query",
                "id": request_id,
                "status": "ok",
                **to_dict(result, include_matches=False),
            }
            if has_matches:
                payload["matches"] = legacy_matches(result.matches)
            assert line == json.dumps(payload) + "\n", request_id
        by_id = {json.loads(line)["id"]: json.loads(line) for line in lines[:-2]}
        assert by_id["enumerate"]["match_count"] > 1000
        assert by_id["hit"]["result_cache"] == "hit"
        assert by_id["empty"]["matches"] == []
        assert by_id["traced"]["trace_id"]
        assert by_id["earliest"]["ordered"] and by_id["earliest"]["matches"]
        assert by_id["topk"]["truncated_by_limit"]
        error = {
            "status": "error",
            "error": "invalid request line: request must be a JSON object",
        }
        assert lines[-2] == json.dumps(error) + "\n"
        assert lines[-1] == json.dumps({"op": "shutdown", "status": "ok"}) + "\n"

    def test_encoder_matches_json_dumps_on_edge_values(self):
        extremes = (0, -1, 2**63 - 1, -(2**63), 1_700_000_000)
        matches = [
            Match(
                (TemporalEdge(1, 2, t), TemporalEdge(2, 3, -t - 1)),
                (1, 2, 3),
            )
            for t in extremes
        ]
        rows = MatchRows.from_matches(matches)
        assert _matches_json(rows) == json.dumps(legacy_matches(matches))
        assert _match_dicts(rows) == legacy_matches(matches)
        assert _matches_json(MatchRows()) == json.dumps([]) == "[]"
        single = MatchRows.from_matches(
            [Match((TemporalEdge(4, 5, 6),), (4, 5))]
        )
        assert _matches_json(single) == (
            '[{"vertices": [4, 5], "edges": [[4, 5, 6]]}]'
        )


class TestPythonContract:
    def test_submit_returns_plain_match_dicts(self, service, graph):
        response = service.submit(json.loads(query_line("q", workers=1)))
        reference = find_matches(
            PATH, path_constraints(300), graph, algorithm="tcsm-eve"
        )
        assert response["status"] == "ok"
        assert response["matches"] == legacy_matches(reference.matches)
        first = response["matches"][0]
        assert type(first) is dict and type(first["vertices"]) is list
        assert all(type(edge) is list for edge in first["edges"])

    def test_result_matches_and_to_dict(self, service, graph):
        result = service.query(
            "dense", PATH, path_constraints(300), workers=1
        )
        reference = find_matches(
            PATH, path_constraints(300), graph, algorithm="tcsm-eve"
        )
        assert result.matches == tuple(reference.matches)
        assert all(
            type(match) is Match
            and all(type(edge) is TemporalEdge for edge in match.edge_map)
            for match in result.matches
        )
        assert result.to_dict()["matches"] == legacy_matches(reference.matches)
        fanned = service.query(
            "dense", PATH, path_constraints(300), use_result_cache=False
        )
        assert fanned.partitions == 2
        assert sorted(fanned.matches) == sorted(reference.matches)

    def test_rows_round_trip(self):
        matches = [
            Match((TemporalEdge(u, u + 1, t), TemporalEdge(u + 1, u, t + 5)),
                  (u, u + 1))
            for u, t in ((1, 10), (7, -3), (2, 0))
        ]
        rows = MatchRows.from_matches(matches)
        assert len(rows) == 3 and rows.width == 8
        assert rows.nbytes == 3 * 8 * rows.data.itemsize
        assert rows.to_matches() == tuple(matches)
        assert pickle.loads(pickle.dumps(rows)) == rows
        assert rows.head(2).to_matches() == tuple(matches[:2])
        joined = MatchRows.concat([rows.head(1), MatchRows(), rows])
        assert joined.to_matches() == (matches[0], *matches)
        assert MatchRows.concat([]) == MatchRows()
        assert MatchRows().to_matches() == ()
        with pytest.raises(ValueError, match="one arity"):
            MatchRows.from_matches(
                [*matches, Match((TemporalEdge(1, 2, 3),), (1, 2))]
            )


def tracked_reachable(root):
    """GC-tracked objects reachable from *root*, not entering types,
    modules or functions (which reach the whole program)."""
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        if gc.is_tracked(obj):
            count += 1
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, opaque):
                seen.add(id(ref))
                stack.append(ref)
    return count


#: Runs in a fresh interpreter, so no other test's objects are counted.
NO_MATCH_OBJECTS = """
import gc, sys
sys.path.insert(0, {tests!r})
from service.test_wire_encoding import PATH, dense_graph, path_constraints
from repro.core import Match
from repro.graphs import TemporalEdge
from repro.service import ServiceConfig, TCSMService

with TCSMService(ServiceConfig(max_workers=2)) as service:
    service.load_graph("dense", dense_graph())
    result = service.query("dense", PATH, path_constraints(300))
    assert result.match_count >= 5000, result.match_count
    assert service.query("dense", PATH, path_constraints(300)).result_cache == "hit"
    del result
    gc.collect()
    leftovers = sum(
        isinstance(obj, (Match, TemporalEdge)) for obj in gc.get_objects()
    )
    assert leftovers == 0, leftovers
    assert len(service.results) == 1
print("ok")
"""


class TestGcFootprint:
    def test_cached_answer_leaves_no_match_objects(self):
        tests = Path(__file__).resolve().parents[1]
        src = Path(repro.__file__).resolve().parents[1]
        script = NO_MATCH_OBJECTS.format(tests=str(tests))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(src), "PATH": ""},
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "ok"

    def test_tracked_objects_do_not_grow_with_match_count(self, service):
        small = service.query("dense", PATH, path_constraints(5))
        large = service.query("dense", PATH, path_constraints(300))
        assert large.match_count >= 5000 > 5 * small.match_count > 0
        assert tracked_reachable(large) == tracked_reachable(small) < 100
