"""Answer checking: compact reply summaries and their references.

The client reduces each decoded reply to a small summary
(:func:`summarize`): status, counts, and the match multiset as an
order-independent 64-bit digest, plus the matches themselves when a
reply holds only a few.  After the run, :class:`Checker` recomputes
every answer by a second execution path, a direct
:func:`repro.api.match` call with a different TCSM algorithm, and
tallies each reply that disagrees as failed:

* count replies must give the exact count;
* full enumerations the exact match multiset and count;
* ``limit`` replies ``min(limit, total)`` matches, each one a real match;
* earliest top-k replies the exact earliest-k list;
* estimates the HT estimate a direct call gives for the same seed;
* on ``stream-ingest``, each subscription's emission multiset must equal
  a one-shot match on the final graph minus one on the set-up graph
  (matches lying wholly in the set-up graph are never emitted).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from .workloads import ALGORITHMS, Workload

__all__ = ["Checker", "digest", "match_key", "summarize"]

_MASK = (1 << 64) - 1

#: Replies with at most this many matches carry the matches themselves.
_INLINE = 16

MatchKey = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def match_key(vertices: Any, edges: Any) -> MatchKey:
    """Hashable form of a match, from a reply or a :class:`Match`."""
    return tuple(vertices), tuple(tuple(edge) for edge in edges)


def digest(keys: Any) -> int:
    """Order-independent digest of a multiset of match keys."""
    return sum(hash(key) for key in keys) & _MASK


def summarize(request: dict[str, Any], reply: dict[str, Any]) -> dict[str, Any]:
    """The part of *reply* the checker needs (JSON-ready)."""
    summary: dict[str, Any] = {"status": reply.get("status")}
    if summary["status"] != "ok":
        summary["error"] = reply.get("error")
        return summary
    op = request.get("op", "query")
    if op == "query":
        summary["match_count"] = reply.get("match_count")
        if "estimate" in reply:
            summary["estimate"] = reply["estimate"]
        matches = reply.get("matches")
        if matches is not None:
            keys = [match_key(m["vertices"], m["edges"]) for m in matches]
            summary["returned"] = len(keys)
            summary["digest"] = digest(keys)
            if len(keys) <= _INLINE:
                summary["matches"] = keys
    elif op == "ingest":
        summary["report"] = reply.get("report")
    elif op == "poll":
        emissions = reply.get("emissions", [])
        summary["count"] = len(emissions)
        summary["seqs"] = [e["seq"] for e in emissions]
        summary["digest"] = digest(
            match_key(e["vertices"], e["edges"]) for e in emissions
        )
    return summary


def _keys(matches: Any) -> list[MatchKey]:
    return [match_key(m.vertex_map, m.edge_map) for m in matches]


@dataclass
class Outcome:
    """Tally of one run's replies against the references."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


class Checker:
    """References for one workload, computed once and shared by its runs."""

    def __init__(self, workload: Workload) -> None:
        from repro.graphs import TemporalGraph, ensure_snapshot

        self.workload = workload
        self._graph = ensure_snapshot(
            TemporalGraph(workload.labels, workload.edges)
        )
        self._cache: dict[tuple[Any, ...], Any] = {}
        self._stream_refs: list[tuple[int, int]] | None = None

    # ------------------------------------------------------------------
    # references
    # ------------------------------------------------------------------
    def _reference(self, request: dict[str, Any], kind: str) -> Any:
        """The reference answer of *kind* for *request*, computed once.

        Exact answers are computed at the floor of every gap: timestamps
        are integers, so ``g + 0.37`` admits exactly the matches of ``g``,
        and the design's copies of one pattern share a reference.
        Estimates keep the request's pattern, probes and seed.
        """
        from repro import api
        from repro.core import find_matches
        from repro.graphs import pattern_from_dict

        pattern = dict(request["pattern"])
        if kind != "estimate":
            pattern["constraints"] = [
                {**c, "gap": math.floor(c["gap"])} for c in pattern["constraints"]
            ]
        algorithm = request.get("algorithm", ALGORITHMS[-1])
        key: tuple[Any, ...] = (json.dumps(pattern, sort_keys=True), algorithm, kind)
        if kind == "estimate":
            key += (request["probes"], request["seed"])
        elif kind == "count" and key[:2] + ("full",) in self._cache:
            return self._cache[key[:2] + ("full",)][0]
        if key in self._cache:
            return self._cache[key]
        query, constraints = pattern_from_dict(pattern)
        other = ALGORITHMS[(ALGORITHMS.index(algorithm) + 1) % len(ALGORITHMS)]

        def match(**options: Any) -> Any:
            return api.match(
                query,
                constraints,
                self._graph,
                algorithm=other,
                options=api.MatchOptions(**options),
            )

        if kind == "full":
            keys = _keys(match().matches)
            value: Any = (len(keys), digest(keys), Counter(keys))
        elif kind == "count":
            value = match(mode="count").stats.matches
        elif kind == "topk":
            value = _keys(match(limit=request["limit"], order_by="earliest").matches)
        else:
            # The estimator ignores the algorithm; probes and seed ride
            # along as matcher options, as in the service.
            value = find_matches(
                query,
                constraints,
                self._graph,
                options=api.MatchOptions(mode="estimate"),
                probes=request["probes"],
                seed=request["seed"],
            ).estimate.to_dict()
        self._cache[key] = value
        return value

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def check(self, summaries: list[dict[str, Any]]) -> Outcome:
        """Tally *summaries*, one per request line of the workload's rounds."""
        lines = [line for rnd in self.workload.rounds for line in rnd.lines]
        outcome = Outcome(attempted=len(lines))
        if len(summaries) != len(lines):
            outcome.fail(
                len(lines),
                f"{len(summaries)} replies for {len(lines)} requests",
            )
            return outcome
        polls: dict[str, list[dict[str, Any]]] = {}
        emitted = 0
        for line, summary in zip(lines, summaries):
            request = json.loads(line)
            op = request.get("op", "query")
            if summary["status"] != "ok":
                outcome.fail(1, f"{op}: {summary.get('error')}")
            elif op == "query":
                problem = self._check_query(request, summary)
                if problem:
                    outcome.fail(1, problem)
            elif op == "ingest":
                report = summary["report"]
                sent = len(request["edges"])
                if report["edges"] != sent or report["new_edges"] != sent:
                    outcome.fail(1, f"ingest report {report} for {sent} edges")
                emitted += report["emitted"]
            elif op == "poll":
                polls.setdefault(request["subscription_id"], []).append(summary)
        if polls:
            self._check_stream(polls, emitted, outcome)
        return outcome

    def _check_query(
        self, request: dict[str, Any], summary: dict[str, Any]
    ) -> str | None:
        where = f"query {request.get('algorithm')}"
        count = summary["match_count"]
        if request.get("mode") == "estimate":
            expected = self._reference(request, "estimate")
            if summary.get("estimate") != expected:
                return f"{where}: estimate {summary.get('estimate')} != {expected}"
            return None
        if request.get("count_only"):
            expected = self._reference(request, "count")
            if count != expected:
                return f"{where}: count {count} != {expected}"
            return None
        if request.get("order_by") == "earliest":
            expected_keys = self._reference(request, "topk")
            got = [match_key(*m) for m in summary.get("matches", [])]
            if got != expected_keys:
                return f"{where}: top-{request['limit']} differs from reference"
            return None
        total, total_digest, counter = self._reference(request, "full")
        if "limit" in request:
            want = min(request["limit"], total)
            got = [match_key(*m) for m in summary.get("matches", [])]
            if len(got) != want or count != want:
                return f"{where}: limit {request['limit']} gave {len(got)} of {total}"
            if Counter(got) - counter:
                return f"{where}: limit reply holds matches the reference lacks"
            return None
        if count != total or summary.get("returned") != total:
            return f"{where}: {summary.get('returned')} matches != {total}"
        if summary.get("digest") != total_digest:
            return f"{where}: match multiset differs from reference"
        return None

    def _check_stream(
        self,
        polls: dict[str, list[dict[str, Any]]],
        emitted: int,
        outcome: Outcome,
    ) -> None:
        refs = self._stream_references()
        delivered = 0
        for index, (count, ref_digest) in enumerate(refs):
            replies = polls.get(f"s{index}", [])
            seqs = [seq for reply in replies for seq in reply["seqs"]]
            got = sum(reply["count"] for reply in replies)
            got_digest = sum(reply["digest"] for reply in replies) & _MASK
            delivered += got
            if seqs != list(range(len(seqs))):
                outcome.fail(len(replies), f"s{index}: emission seqs not contiguous")
            elif got != count or got_digest != ref_digest:
                outcome.fail(
                    len(replies),
                    f"s{index}: {got} emissions, reference {count}"
                    + ("" if got != count else " (multiset differs)"),
                )
        if delivered != emitted:
            outcome.fail(1, f"polls delivered {delivered}, ingest emitted {emitted}")

    def _stream_references(self) -> list[tuple[int, int]]:
        """Per subscription: (emissions, digest) the stream must deliver."""
        if self._stream_refs is None:
            from repro import api
            from repro.graphs import TemporalGraph, ensure_snapshot, pattern_from_dict

            final = ensure_snapshot(
                TemporalGraph(self.workload.labels, self.workload.final_edges)
            )
            refs = []
            for line in self.workload.setup_lines:
                query, constraints = pattern_from_dict(json.loads(line)["pattern"])
                after = _keys(api.match(query, constraints, final).matches)
                before = _keys(api.match(query, constraints, self._graph).matches)
                refs.append(
                    (len(after) - len(before), (digest(after) - digest(before)) & _MASK)
                )
            self._stream_refs = refs
        return self._stream_refs
