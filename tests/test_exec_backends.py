"""Backend conformance, queue lease recovery, wire round-trips.

Every :class:`~repro.exec.backend.ExecutionBackend` must be
bit-identical to the inline baseline -- the fabric only changes *where*
units execute.  The queue tests drive the lease protocol directly
through :class:`~repro.exec.queue.JobQueue` (no subprocesses) so crash
recovery -- expired leases, retries, the ``max_attempts`` cap -- is
fast and deterministic.
"""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ProcessorConfig
from repro.core.config import RunRequest
from repro.exec import (
    InlineBackend,
    JobQueue,
    ProcessPoolBackend,
    QueueBackend,
    ResultCache,
    SimJob,
    SweepExecutor,
    WireError,
    backend_names,
    create_backend,
    unit_job_id,
)
from repro.exec.queue import run_worker
from repro.exec.wire import dumps, loads

INSTRUCTIONS = 300
SKIP = 200

WORKLOADS = ["sjeng", "mcf"]


def _batch():
    base = ProcessorConfig.cortex_a72_like()
    return [SimJob.make(name, cfg, INSTRUCTIONS, SKIP)
            for name in WORKLOADS for cfg in (base, base.with_pubs())]


def _unit(n=1):
    from repro.exec.jobs import job_key
    jobs = _batch()[:n]
    return [(job_key(job), job) for job in jobs]


class TestBackendConformance:
    """parallel == serial == queued: the fabric's core contract."""

    def test_registry_knows_all_backends(self):
        assert {"inline", "process", "queue"} <= set(backend_names())
        with pytest.raises(ValueError, match="unknown execution backend"):
            create_backend("bogus")

    def test_inline_and_process_match(self):
        batch = _batch()
        inline = SweepExecutor(jobs=1, cache=False,
                               backend=InlineBackend()).run(batch)
        pooled = SweepExecutor(jobs=2, cache=False,
                               backend=ProcessPoolBackend(2)).run(batch)
        assert pooled == inline  # dataclass equality: exact stats match

    def test_queue_backend_matches_inline(self, tmp_path):
        batch = _batch()
        inline = SweepExecutor(jobs=1, cache=False,
                               backend=InlineBackend()).run(batch)
        backend = QueueBackend(root=tmp_path / "q", local_workers=2,
                               timeout=180)
        queued = SweepExecutor(jobs=1, cache=False, backend=backend)
        assert queued.run(batch) == inline
        assert queued.simulations_run == len(batch)

    def test_results_come_back_in_request_order(self):
        batch = _batch()
        executor = SweepExecutor(jobs=1, cache=False,
                                 backend=InlineBackend())
        results = executor.run(batch)
        assert results == executor.run(list(reversed(batch)))[::-1]

    def test_warm_cache_never_touches_the_backend(self, tmp_path):
        """A fully warm executor must not dispatch: the queue backend
        here has no workers and a tiny timeout, so any stray unit would
        raise instead of hang."""
        batch = _batch()
        cache_dir = tmp_path / "cache"
        SweepExecutor(jobs=1, cache=ResultCache(cache_dir),
                      backend=InlineBackend()).run(batch)
        warm = SweepExecutor(
            jobs=1, cache=ResultCache(cache_dir),
            backend=QueueBackend(root=tmp_path / "q", timeout=1))
        warm.run(batch)
        assert warm.simulations_run == 0
        assert warm.backend.queue.counts() == {}  # nothing dispatched

    def test_executor_summary_names_nondefault_backend(self, tmp_path):
        queued = SweepExecutor(jobs=1, cache=False,
                               backend=QueueBackend(root=tmp_path / "q"))
        assert f"backend=queue:{tmp_path / 'q'}" in queued.summary()
        pooled = SweepExecutor(jobs=1, cache=False)
        assert "backend=" not in pooled.summary()


class TestJobQueue:
    """The lease protocol, driven directly (no worker subprocesses)."""

    def test_submit_is_content_addressed(self, tmp_path):
        queue = JobQueue(tmp_path)
        unit = _unit()
        first = queue.submit(unit)
        second = queue.submit(unit)
        assert first == second == unit_job_id(unit)
        assert queue.counts() == {"pending": 1}

    def test_lease_execute_complete_roundtrip(self, tmp_path):
        queue = JobQueue(tmp_path)
        unit = _unit()
        job_id = queue.submit(unit)
        leased = queue.lease("w1")
        assert leased is not None
        assert leased.job_id == job_id
        assert leased.attempts == 1
        # The payload crossed SQLite as versioned JSON and came back
        # as the identical unit.
        assert list(leased.unit) == unit
        assert queue.lease("w2") is None  # held lease is exclusive
        assert queue.complete(job_id, "w1")
        assert queue.states([job_id]) == {job_id: "done"}
        assert [job_id] == [jid for jid, _ in queue.recent_done()]

    def test_expired_lease_is_reclaimed(self, tmp_path):
        """Crash recovery: a dead worker's lease times out and another
        worker takes the job over; the dead worker's late writes are
        rejected by the owner check."""
        queue = JobQueue(tmp_path, lease_ttl=0.05)
        job_id = queue.submit(_unit())
        assert queue.lease("dead").attempts == 1
        time.sleep(0.1)
        retaken = queue.lease("alive")
        assert retaken is not None and retaken.attempts == 2
        assert not queue.complete(job_id, "dead")   # lost the lease
        assert not queue.heartbeat(job_id, "dead")
        assert queue.complete(job_id, "alive")
        assert queue.states([job_id]) == {job_id: "done"}

    def test_heartbeat_keeps_the_lease(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=0.2)
        job_id = queue.submit(_unit())
        assert queue.lease("w1") is not None
        for _ in range(4):
            time.sleep(0.1)
            assert queue.heartbeat(job_id, "w1")
            assert queue.lease("thief") is None
        assert queue.complete(job_id, "w1")

    def test_failed_attempts_retry_then_park(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60, max_attempts=2)
        job_id = queue.submit(_unit())
        assert queue.lease("w1").attempts == 1
        assert queue.fail(job_id, "w1", "boom 1")
        assert queue.states([job_id]) == {job_id: "pending"}  # retryable
        assert queue.lease("w1").attempts == 2
        assert queue.fail(job_id, "w1", "boom 2")
        assert queue.states([job_id]) == {job_id: "failed"}   # at the cap
        assert queue.error_of(job_id) == "boom 2"
        assert queue.lease("w1") is None

    def test_resubmit_revives_a_failed_job(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=1)
        unit = _unit()
        job_id = queue.submit(unit)
        queue.lease("w1")
        queue.fail(job_id, "w1", "boom")
        assert queue.states([job_id]) == {job_id: "failed"}
        assert queue.submit(unit) == job_id  # operator says "try again"
        leased = queue.lease("w1")
        assert leased is not None and leased.attempts == 1

    def test_abandoned_job_parks_after_max_attempts(self, tmp_path):
        """A unit whose holder dies every time must not loop forever."""
        queue = JobQueue(tmp_path, lease_ttl=0.01, max_attempts=2)
        job_id = queue.submit(_unit())
        for _ in range(queue.max_attempts):
            assert queue.lease("crashy") is not None
            time.sleep(0.03)  # die without completing
        assert queue.lease("next") is None
        assert queue.states([job_id]) == {job_id: "failed"}
        assert "max_attempts" in queue.error_of(job_id)

    def test_run_worker_drains_and_writes_results_first(self, tmp_path):
        """In-process drain worker: every submitted unit completes and
        its results are in the queue directory's cache namespace."""
        queue = JobQueue(tmp_path)
        units = [[entry] for entry in _unit(2)]
        for unit in units:
            queue.submit(unit)
        assert run_worker(tmp_path, drain=True) == len(units)
        assert queue.counts() == {"done": len(units)}
        results = ResultCache(tmp_path)
        for unit in units:
            for key, _job in unit:
                assert results.get(key) is not None


_REQUESTS = st.builds(
    RunRequest,
    instructions=st.none() | st.integers(min_value=1, max_value=10**9),
    skip=st.none() | st.integers(min_value=0, max_value=10**9),
    jobs=st.none() | st.integers(min_value=1, max_value=512),
    cache=st.none() | st.booleans(),
    batch=st.none() | st.integers(min_value=0, max_value=64),
    backend=st.none() | st.sampled_from(["inline", "process", "queue"]),
    sampling=st.none() | st.sampled_from(["off", "fixed"]),
    ci_target=st.none(),
    regions=st.none() | st.integers(min_value=1, max_value=4096),
    measure=st.none() | st.integers(min_value=1, max_value=10**6),
    warmup=st.none() | st.integers(min_value=0, max_value=10**6),
    detail=st.none() | st.integers(min_value=0, max_value=10**6),
    max_fraction=st.none() | st.floats(min_value=0.01, max_value=1.0),
    checkpoint_interval=st.none() | st.integers(min_value=1,
                                                max_value=10**6),
    paired=st.none() | st.booleans(),
    table_budget=st.none() | st.booleans(),
)


class TestWireCodec:
    @given(request=_REQUESTS)
    def test_run_request_json_roundtrip(self, request):
        assert RunRequest.from_json(request.to_json()) == request

    def test_request_json_rejects_garbage(self):
        with pytest.raises(WireError):
            RunRequest.from_json("not json at all")

    def test_request_with_removed_frontend_field_rejected(self):
        # A payload written before replay became the only front end still
        # carries the removed ``frontend`` field: decoding fails loudly.
        data = RunRequest(jobs=2).to_wire()
        data["payload"]["fields"]["frontend"] = "replay"
        with pytest.raises(WireError):
            RunRequest.from_wire(data)
        with pytest.raises(WireError):
            RunRequest.from_json('{"wire": 999, "kind": "RunRequest"}')

    def test_sim_job_roundtrip(self):
        job = _batch()[0]
        assert loads(dumps("job", job), kind="job") == job

    def test_simulation_result_roundtrip(self):
        job = _batch()[0]
        from repro.exec.jobs import execute_job
        result = execute_job(job)
        assert loads(dumps("result", result), kind="result") == result

    def test_decode_refuses_untrusted_classes(self):
        text = dumps("job", _batch()[0]).replace(
            "repro.exec.jobs:SimJob", "subprocess:Popen")
        with pytest.raises(WireError, match="may only reference"):
            loads(text, kind="job")
