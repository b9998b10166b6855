"""Backend conformance: the pool is bit-identical to inline execution.

Both backends run the same planned units; which one ran a unit must be
unobservable in the results.
"""

import pytest

from repro import ProcessorConfig
from repro.exec import (
    InlineBackend,
    ProcessPoolBackend,
    ResultCache,
    SimJob,
    SweepExecutor,
)

INSTRUCTIONS = 300
SKIP = 200

WORKLOADS = ["sjeng", "mcf"]


def _batch():
    base = ProcessorConfig.cortex_a72_like()
    return [SimJob.make(name, cfg, INSTRUCTIONS, SKIP)
            for name in WORKLOADS for cfg in (base, base.with_pubs())]


class _RefusingBackend:
    """A backend that fails on any unit it is handed."""

    def run_units(self, units):
        raise AssertionError(f"dispatched {len(units)} unit(s)")


class TestBackendConformance:
    """parallel == serial: the executor's core contract."""

    def test_backend_by_name(self):
        # The e2e benchmark builds its executor this way.
        executor = SweepExecutor(jobs=1, backend="inline")
        assert isinstance(executor.backend, InlineBackend)
        assert isinstance(SweepExecutor(jobs=2).backend, ProcessPoolBackend)
        with pytest.raises(ValueError, match="unknown execution backend"):
            SweepExecutor(jobs=1, backend="queue")

    def test_inline_and_process_match(self):
        batch = _batch()
        inline = SweepExecutor(jobs=1, cache=False,
                               backend=InlineBackend()).run(batch)
        pooled = SweepExecutor(jobs=2, cache=False,
                               backend=ProcessPoolBackend(2)).run(batch)
        assert pooled == inline  # dataclass equality: exact stats match

    def test_results_come_back_in_request_order(self):
        batch = _batch()
        executor = SweepExecutor(jobs=1, cache=False,
                                 backend=InlineBackend())
        results = executor.run(batch)
        assert results == executor.run(list(reversed(batch)))[::-1]

    def test_warm_cache_never_touches_the_backend(self, tmp_path):
        """A fully warm executor must not dispatch: the backend here
        fails on any unit it is handed."""
        batch = _batch()
        cache_dir = tmp_path / "cache"
        cold = SweepExecutor(jobs=1, cache=ResultCache(cache_dir),
                             backend=InlineBackend()).run(batch)
        warm = SweepExecutor(jobs=1, cache=ResultCache(cache_dir),
                             backend=_RefusingBackend())
        assert warm.run(batch) == cold
        assert warm.simulations_run == 0
