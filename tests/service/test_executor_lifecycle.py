"""Lifecycle of the fork-inherited process spec (the epoch guard).

``_PROCESS_SPEC`` is a module global so forked workers inherit the
query spec without pickling the graph.  That makes its lifecycle a
correctness surface: a spec that outlives its fan-out must never be
runnable (stale reads would silently answer the *previous* query), and
a closed executor must leave nothing behind for the next fork to
inherit.
"""

import pytest

from repro.core import MatchRows
from repro.service import ProcessSpec, QueryExecutor
from repro.service import executor as executor_module


@pytest.fixture()
def spec(toy):
    query, tc, graph, _, _ = toy
    return ProcessSpec(
        query=query,
        constraints=tc,
        graph=graph.freeze(),
        algorithm="tcsm-eve",
        options={},
    )


class TestEpochGuard:
    def test_worker_rejects_missing_spec(self):
        executor_module._set_process_spec(
            None, next(executor_module._EPOCH_COUNTER)
        )
        with pytest.raises(RuntimeError, match="stale or missing"):
            executor_module._run_partition_in_process(0, 1, epoch=10**9)

    def test_worker_rejects_stale_epoch(self, spec):
        epoch = next(executor_module._EPOCH_COUNTER)
        executor_module._set_process_spec(spec, epoch)
        try:
            with pytest.raises(RuntimeError, match="stale"):
                executor_module._run_partition_in_process(
                    0, 1, epoch=epoch + 1
                )
        finally:
            executor_module._set_process_spec(
                None, next(executor_module._EPOCH_COUNTER)
            )

    def test_worker_runs_with_current_epoch(self, spec):
        epoch = next(executor_module._EPOCH_COUNTER)
        executor_module._set_process_spec(spec, epoch)
        try:
            rows, stats, compiles, owned = (
                executor_module._run_partition_in_process(0, 1, epoch)
            )
        finally:
            executor_module._set_process_spec(
                None, next(executor_module._EPOCH_COUNTER)
            )
        # Workers ship flat rows: one byte buffer through the pickle pipe.
        assert isinstance(rows, MatchRows)
        assert stats.matches == len(rows) == 2
        assert compiles == 0  # the spec ships a pre-compiled snapshot
        assert owned > 0  # plain snapshot: the worker owns its buffers


class TestSpecCleared:
    def test_fanout_clears_spec_on_completion(self, spec):
        with QueryExecutor(max_workers=2, pool="process") as executor:
            outcome = executor.run_process(spec, workers=2)
            assert outcome.stats.matches == 2
            assert executor_module._PROCESS_SPEC is None

    def test_close_clears_spec(self, spec):
        executor = QueryExecutor(max_workers=2, pool="process")
        executor_module._set_process_spec(
            spec, next(executor_module._EPOCH_COUNTER)
        )
        executor.close()
        assert executor_module._PROCESS_SPEC is None
