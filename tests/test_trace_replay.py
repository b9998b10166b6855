"""Replay front end: bit-identity with live execution, end to end.

The tentpole guarantee of the trace subsystem: ``frontend_mode="replay"``
produces *exactly* the result live functional execution produces -- same
``SimStats``, same side-structure counters -- while sharing one capture and
one set of warm checkpoints across every configuration of a sweep.
"""

import dataclasses

import pytest

from repro.core.config import ProcessorConfig
from repro.core.simulator import simulate
from repro.trace import TraceExhaustedError, TraceReplayFrontEnd, capture_trace
from repro.trace.replay import CHUNK, TAIL
from repro.trace.store import TraceStore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

BASE = ProcessorConfig.cortex_a72_like()

#: 3 workloads x {base, pubs}: the round-trip matrix the issue requires.
MATRIX = [(workload, tag, config)
          for workload in ("sjeng", "gcc", "mcf")
          for tag, config in (("base", BASE), ("pubs", BASE.with_pubs()))]

INSTRUCTIONS = 2000
SKIP = 2000


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return TraceStore(root=tmp_path_factory.mktemp("traces"),
                      persistent=True)


def _run(workload, config, frontend, store, instructions=INSTRUCTIONS,
         skip=SKIP):
    profile = get_profile(workload)
    return simulate(
        build_program(profile), config.with_frontend(frontend),
        max_instructions=instructions, skip_instructions=skip,
        mem_seed=profile.mem_seed,
        trace_source=store if frontend == "replay" else None)


@pytest.mark.parametrize("workload,tag,config", MATRIX,
                         ids=[f"{w}-{t}" for w, t, _ in MATRIX])
def test_replay_reproduces_live_stats(workload, tag, config, store):
    """record -> serialize -> load -> replay == live, bit for bit."""
    live = _run(workload, config, "live", store)
    replay = _run(workload, config, "replay", store)
    assert dataclasses.asdict(replay.stats) == dataclasses.asdict(live.stats)
    assert dataclasses.asdict(replay.tracker_stats) \
        == dataclasses.asdict(live.tracker_stats)
    assert replay.predictor_accuracy == live.predictor_accuracy
    assert replay.btb_hit_rate == live.btb_hit_rate
    assert replay.iq_priority_dispatches == live.iq_priority_dispatches
    assert replay.lsq_forwards == live.lsq_forwards
    assert replay.select_avg_grants == live.select_avg_grants
    assert replay.frontend_mode == "replay" and live.frontend_mode == "live"


def test_replay_from_reloaded_store(tmp_path):
    """A trace recorded by one process and loaded by another replays the
    same stats (the serialize -> load leg of the round trip)."""
    config = BASE.with_pubs()
    recorder = TraceStore(root=tmp_path, persistent=True)
    first = _run("sjeng", config, "replay", recorder)
    loader = TraceStore(root=tmp_path, persistent=True)
    second = _run("sjeng", config, "replay", loader)
    assert loader.captures == 0  # everything came from disk
    assert dataclasses.asdict(second.stats) == dataclasses.asdict(first.stats)


def test_warm_checkpoints_shared_across_configs(store):
    """One capture + one warm training serves a whole config sweep."""
    sweep_store = TraceStore(root=store.root, persistent=False)
    pubs = BASE.pubs.with_overrides(enabled=True)
    for entries in (4, 6, 8):
        cfg = BASE.with_pubs(pubs.with_overrides(priority_entries=entries))
        _run("gobmk", cfg, "replay", sweep_store)
    assert sweep_store.captures == 1
    assert sweep_store.warm_trainings == 2   # mem + front, once each
    assert sweep_store.warm_restores == 4    # 2 components x 2 later runs


def test_replay_with_full_verification(store):
    """The differential oracle + invariants hold on a replayed run."""
    config = BASE.with_pubs().with_verification("full", interval=128)
    result = _run("sjeng", config, "replay", store)
    assert result.verified_commits == INSTRUCTIONS
    assert result.invariant_sweeps > 0


def test_replay_resume_matches_live(store):
    """run() twice on one pipeline behaves identically in both modes.

    (The second run keeps ``skip=0``: skipping with uops in flight would
    release trace records an in-flight branch can still rewind to, in
    live and replay mode alike.)
    """
    from repro.core.pipeline import Pipeline

    profile = get_profile("gcc")
    program = build_program(profile)
    live = Pipeline(program, BASE, mem_seed=profile.mem_seed)
    replay = Pipeline(program, BASE.with_frontend("replay"),
                      mem_seed=profile.mem_seed, trace_source=store)
    for pipe in (live, replay):
        pipe.run(800, skip_instructions=600)
        pipe.run(800)
    assert dataclasses.asdict(replay.stats) == dataclasses.asdict(live.stats)


@pytest.mark.parametrize("workload", ["sjeng", "astar"])
def test_replay_resume_with_skip_matches_live(workload, store):
    """run(n, skip) twice on one pipeline: replay == live.

    The second run's warm span starts where the first run's fetch
    stopped -- the cursor's ``high`` -- in both modes; how far the
    chunked decoder has run ahead of fetch must not move it.  (These
    workloads end the first run with no mispredicted branch in flight,
    so the skip releases nothing an in-flight branch can rewind to.)
    """
    from repro.core.pipeline import Pipeline

    profile = get_profile(workload)
    program = build_program(profile)
    live = Pipeline(program, BASE, mem_seed=profile.mem_seed)
    replay = Pipeline(program, BASE.with_frontend("replay"),
                      mem_seed=profile.mem_seed, trace_source=store)
    for pipe in (live, replay):
        pipe.run(800, skip_instructions=600)
        pipe.run(800, skip_instructions=600)
    assert dataclasses.asdict(replay.stats) == dataclasses.asdict(live.stats)


def test_replay_frontend_cursor_semantics():
    """Chunked decoding bounded by the window end; ``high`` is the fetch
    position, not the decode position; released records stay released
    and are freed."""
    profile = get_profile("sjeng")
    program = build_program(profile)
    trace = capture_trace(program, profile.mem_seed, 3 * CHUNK)
    end = CHUNK + 100
    cursor = TraceReplayFrontEnd(trace, program, end)
    first = cursor.get(0)
    assert first.seq == 0 and first.inst.pc == trace.pcs[0]
    assert cursor.get(10).seq == 10
    assert cursor.decoded == CHUNK  # one whole chunk below the end...
    assert cursor.high == 11  # ...but only what was fetched counts
    cursor.release(5)
    with pytest.raises(IndexError):
        cursor.get(4)  # below the low-water mark
    assert cursor.get(5) is not None
    # A chunk never crosses the window end; past it, decoding advances
    # TAIL records at a time.
    assert cursor.get(end + 3).seq == end + 3
    assert cursor.decoded == end + 4
    cursor.get(end + 4)
    assert cursor.decoded == end + 4 + TAIL and cursor.high == end + 5
    # Releases free the records below the mark.
    cursor.release(end)
    assert cursor.retained == cursor.decoded - end
    with pytest.raises(IndexError):
        cursor.get(end - 1)
    cursor.release(2 * CHUNK)  # jump past the decoded window
    assert cursor.retained == 0 and cursor.high == 2 * CHUNK
    assert cursor.get(2 * CHUNK).seq == 2 * CHUNK
    with pytest.raises(TraceExhaustedError):
        cursor.get(3 * CHUNK)  # past the captured stream


def test_region_decoding_stays_within_acquired_need(store):
    """A short sampled region decodes no further than its acquired need
    (``end`` plus the fetch-ahead margin) -- and in fact no more than
    one tail chunk past the furthest record it fetched."""
    from repro.core.pipeline import Pipeline
    from repro.trace.store import REPLAY_MARGIN

    profile = get_profile("gcc")
    start, measure = 6000, 500
    pipe = Pipeline(build_program(profile),
                    BASE.with_region(start, warmup=2000, detail=300),
                    mem_seed=profile.mem_seed, trace_source=store)
    pipe.run(measure)
    cursor = pipe.cursor
    assert cursor.high > start + measure  # fetch ran ahead of commit
    assert cursor.decoded <= cursor.high + TAIL
    assert cursor.decoded <= start + measure + REPLAY_MARGIN


def test_replay_frontend_attach_requires_extension():
    profile = get_profile("sjeng")
    program = build_program(profile)
    long_trace = capture_trace(program, profile.mem_seed, 60)
    short_trace = capture_trace(program, profile.mem_seed, 30)
    cursor = TraceReplayFrontEnd(long_trace, program)
    with pytest.raises(ValueError):
        cursor.attach(short_trace)


def test_frontend_mode_changes_job_key():
    """Live and replay runs never share a cached result."""
    from repro.exec.jobs import SimJob, job_key

    live = SimJob.make("sjeng", BASE, 1000, 1000)
    replay = SimJob.make("sjeng", BASE.with_frontend("replay"), 1000, 1000)
    assert job_key(live) != job_key(replay)


def test_frontend_mode_validated():
    with pytest.raises(ValueError):
        BASE.with_frontend("clairvoyant")


def test_runner_env_selects_frontend(monkeypatch, tmp_path):
    from repro.analysis.runner import run_workload
    from repro.trace import store as store_module

    monkeypatch.setenv("REPRO_FRONTEND", "replay")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store_module.reset_shared_stores()
    try:
        result = run_workload("sjeng", BASE, instructions=500, skip=500,
                              cache=False)
    finally:
        store_module.reset_shared_stores()
    assert result.frontend_mode == "replay"
    assert result.config.frontend_mode == "replay"
