"""Benchmark command for the TCSM serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 12 --trace 0

Each invocation builds the workload's fixed request sequence from
``--seed``, runs it to completion in a fresh child process, checks every
reply against a reference computed by a second execution path, and
prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same sequence untraced and then traced
(each in its own process) and reports the per-layer ledger.
``--seconds`` sets how much work a run does, not a time limit; see
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Unit of every metric the command prints.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_s_p50": "s",
    "latency_s_p90": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "response_bytes_per_match": "B",
}
PER_LAYER_UNITS = {
    "server.decode_s": "s",
    "server.encode_s": "s",
    "server.serialize_s": "s",
    "service.self_s": "s",
    "plans.lookup_s": "s",
    "plans.hit_ratio": "ratio",
    "core.prepare_s": "s",
    "core.codegen_compile_s": "s",
    "core.codegen_compiles": "count",
    "cache.lookup_s": "s",
    "cache.hit_ratio": "ratio",
    "executor.self_s": "s",
    "core.enumerate_count_s": "s",
    "core.enumerate_collect_s": "s",
    "core.estimate_s": "s",
    "core.timestamps_expanded": "count",
    "core.timestamps_skipped": "count",
    "core.filter_survivor_ratio": "ratio",
    "core.matches_per_expanded": "ratio",
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "streaming.ingest_s": "s",
    "streaming.poll_s": "s",
    "streaming.emitted_per_edge": "ratio",
    "graphs.flushes": "count",
    "graphs.compactions": "count",
    "registry.register_s": "s",
    "ledger.unaccounted_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Seconds all passes of one invocation may take together; a pass still
#: running then is killed, so the command ends well within 180 s.
PASSES_BUDGET_S = 140


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with *q* of values at or below."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def busy_seconds(measured: dict[str, Any], scaled: bool = True) -> float:
    """Sum of a run's round times (reference seconds when *scaled*)."""
    return sum(
        seconds / (factor if scaled else 1.0)
        for seconds, factor in zip(measured["round_seconds"], measured["round_factors"])
    )


@dataclass
class Replies:
    """One pass's reply log, decoded and checked: the client's side."""

    outcome: Any
    units: int
    payload_bytes: int
    payload_matches: int


def read_replies(workload: Any, checker: Any, path: Path) -> Replies:
    """Decode every reply line in *path*, summarise it, and check the lot."""
    from perfbench.check import summarize

    summaries = []
    payload_bytes = payload_matches = 0
    lines = [line for rnd in workload.rounds for line in rnd.lines]
    with path.open(encoding="utf-8") as log:
        for line, reply in zip(lines, log):
            request = json.loads(line)
            summary = summarize(request, json.loads(reply))
            summaries.append(summary)
            if request["op"] == workload.payload_op:
                payload_bytes += len(reply.encode("utf-8"))
                payload_matches += summary.get("returned", 0) + summary.get("count", 0)
    return Replies(
        outcome=checker.check(summaries),
        units=sum(rnd.units for rnd in workload.rounds),
        payload_bytes=payload_bytes,
        payload_matches=payload_matches,
    )


def end_to_end(
    measured: dict[str, Any], replies: Replies, latency_rounds: list[bool]
) -> dict[str, float]:
    """The seven end-to-end metrics of one untraced run, in reference seconds."""
    latencies = [
        seconds / factor
        for seconds, factor, counted in zip(
            measured["round_seconds"], measured["round_factors"], latency_rounds
        )
        if counted
    ]
    setups = [
        seconds / factor
        for seconds, factor in zip(measured["setup_seconds"], measured["setup_factors"])
    ]
    outcome = replies.outcome
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": replies.units / busy_seconds(measured),
        "latency_s_p50": percentile(latencies, 0.50),
        "latency_s_p90": percentile(latencies, 0.90),
        "peak_rss_mb": measured["peak_rss_mb"],
        "ok_ratio": (outcome.attempted - outcome.failed) / outcome.attempted,
        "response_bytes_per_match": replies.payload_bytes
        / max(1, replies.payload_matches),
    }


def _child(
    args: argparse.Namespace, traced: bool, replies: Path, deadline: float
) -> dict[str, Any]:
    """Run one measured pass in a fresh interpreter; its last stdout line."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--size", str(args.size),
        "--role", "traced" if traced else "untraced",
        "--replies", str(replies),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()),
            text=True,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload}: passes exceeded {PASSES_BUDGET_S}s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"{args.workload}: run failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        type=int,
        default=0,
        help="override the workload size --seconds implies (for self-tests)",
    )
    parser.add_argument(
        "--role", choices=("main", "untraced", "traced"), default="main",
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--replies", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"cannot find the repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.size <= 0:
        args.size = workloads.default_size(args.workload, args.seconds)
    workload = workloads.build(args.workload, args.seed, args.size)

    if args.role != "main":
        from perfbench import client

        measured = client.run(
            workload, traced=args.role == "traced", replies=Path(args.replies)
        )
        print(json.dumps(measured))
        return 0

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    roles = ("untraced", "traced") if args.trace else ("untraced",)
    logs = {role: scratch / f"{args.workload}-{os.getpid()}-{role}.jsonl" for role in roles}
    try:
        result = _measure(args, workload, logs)
    finally:
        for path in logs.values():
            path.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


def _measure(args: argparse.Namespace, workload: Any, logs: dict[str, Path]) -> dict[str, Any]:
    """Run the passes, check their replies, and build the result object."""
    from perfbench.check import Checker

    clock = time.perf_counter()
    deadline = time.monotonic() + PASSES_BUDGET_S
    measured = {
        role: _child(args, role == "traced", path, deadline) for role, path in logs.items()
    }
    children_s = time.perf_counter() - clock
    checker = Checker(workload)
    replies = {role: read_replies(workload, checker, path) for role, path in logs.items()}
    correct = True
    for role in logs:
        outcome = replies[role].outcome
        for problem in outcome.problems + measured[role]["hygiene"]:
            print(f"{role}: {problem}", file=sys.stderr)
        correct = correct and not outcome.failed and not measured[role]["hygiene"]
    untraced = measured["untraced"]
    if args.trace:
        metrics = dict(measured["traced"]["layers"])
        metrics["trace.overhead_ratio"] = busy_seconds(untraced) / busy_seconds(
            measured["traced"]
        )
        units = PER_LAYER_UNITS
        for name, value in metrics.items():
            print(f"{name:28s} {value:.6g}", file=sys.stderr)
    else:
        latency_rounds = [rnd.kind == workload.latency_kind for rnd in workload.rounds]
        metrics = end_to_end(untraced, replies["untraced"], latency_rounds)
        units = END_TO_END_UNITS
    print(
        f"{args.workload}: children {children_s:.1f}s, "
        f"checking {time.perf_counter() - clock - children_s:.1f}s, "
        f"busy {busy_seconds(untraced, scaled=False):.2f}s raw, "
        f"{busy_seconds(untraced):.2f} reference s, "
        f"median slowdown {statistics.median(untraced['round_factors']):.3f}",
        file=sys.stderr,
    )
    return {
        "correct": correct,
        "attempted": sum(r.outcome.attempted for r in replies.values()),
        "failed": sum(r.outcome.failed for r in replies.values()),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
