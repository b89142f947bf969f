"""Self-tests for the benchmark command (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.check import Checker, summarize
from perfbench.ledger import ROUND, Span, covered, layer_self_times
from perfbench.run import END_TO_END_UNITS, PER_LAYER_UNITS
from perfbench.workloads import WORKLOADS, build

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"

#: Small sizes: a few requests / patterns / a small streamed graph.
TINY = {"paper-cold": 12, "dense-export": 4, "stream-ingest": 48}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--size", str(TINY[workload]),
            "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def test_units_tables_match_benchmark_json() -> None:
    assert END_TO_END_UNITS == _declared("end_to_end")
    assert PER_LAYER_UNITS == _declared("per_layer")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_declared_metrics_and_is_correct(workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, done.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == _declared(section)
        if trace == 0:
            assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run("dense-export", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_same_seed_gives_same_requests() -> None:
    first = build("stream-ingest", 5, 48)
    second = build("stream-ingest", 5, 48)
    other = build("stream-ingest", 6, 48)
    assert [r.lines for r in first.rounds] == [r.lines for r in second.rounds]
    assert [r.lines for r in first.rounds] != [r.lines for r in other.rounds]


def test_checker_counts_a_wrong_answer_as_failed() -> None:
    workload = build("dense-export", 2, 1)
    lines = [line for rnd in workload.rounds for line in rnd.lines]
    from repro.graphs import TemporalGraph
    from repro.service import TCSMService

    with TCSMService() as service:
        service.load_graph("g", TemporalGraph(workload.labels, workload.edges))
        replies = [service.submit(json.loads(line)) for line in lines]
    summaries = [
        summarize(json.loads(line), json.loads(json.dumps(reply)))
        for line, reply in zip(lines, replies)
    ]
    checker = Checker(workload)
    assert checker.check(summaries).failed == 0
    wrong = [dict(summary) for summary in summaries]
    wrong[1]["match_count"] += 1  # the count-only reply
    wrong[0]["digest"] ^= 1  # the enumeration's multiset
    outcome = checker.check(wrong)
    assert outcome.failed == 2 and outcome.attempted == len(lines)


def test_covered_counts_overlaps_once() -> None:
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.75)]) == 3.0


def test_self_time_arithmetic_on_hand_built_spans() -> None:
    # round [0, 10]: decode [0, 1], submit [1, 9] (run_matcher [2, 8] with
    # two partitions [2, 6] and [3, 7] on two threads), serialise [9, 9.5].
    spans = [
        Span(ROUND, 0.0, 10.0, None, 0),
        Span("server.decode", 0.0, 1.0, 0, 0),
        Span("service.self", 1.0, 9.0, 0, 0),
        Span("executor.self", 2.0, 8.0, 2, 0),
        Span("core.enumerate_count", 2.0, 6.0, 3, 0),
        Span("core.enumerate_count", 3.0, 7.0, 3, 0),
        Span("server.serialize", 9.0, 9.5, 0, 0),
        Span("registry.register", -5.0, -4.0, None, None),
    ]
    self_by_layer, round_seconds, unaccounted = layer_self_times(spans)
    own = {name: dict(by_round) for name, by_round in self_by_layer.items()}
    assert own["core.enumerate_count"] == {0: 5.0}  # union, not 4 + 4
    assert own["executor.self"] == {0: 1.0}
    assert own["service.self"] == {0: 2.0}
    assert own["server.decode"] == {0: 1.0}
    assert own["server.serialize"] == {0: 0.5}
    assert own["registry.register"] == {None: 1.0}
    assert round_seconds == 10.0
    assert unaccounted == 0.5  # ledger.unaccounted_ratio = 0.05
    layered = sum(v for name, by in own.items() for k, v in by.items() if k == 0)
    assert layered + unaccounted == round_seconds
