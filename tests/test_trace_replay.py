"""Replay front end: bit-identity with the retired live path, end to end.

The tentpole guarantee of the trace subsystem: replaying a recorded trace
produces *exactly* the result live functional execution produced -- same
``SimStats``, same side-structure counters -- while sharing one capture and
one set of warm checkpoints across every configuration of a sweep.  Replay
is now the only timed front end, so the live results are pinned as
digests (:mod:`tests.digests`), recorded when both front ends still ran.
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
from tests.digests import result_digest, stats_digest

BASE = ProcessorConfig.cortex_a72_like()

#: 3 workloads x {base, pubs}: the round-trip matrix.
MATRIX = [(workload, tag, config)
          for workload in ("sjeng", "gcc", "mcf")
          for tag, config in (("base", BASE), ("pubs", BASE.with_pubs()))]

INSTRUCTIONS = 2000
SKIP = 2000

#: :func:`~tests.digests.result_digest` of each matrix cell as the live
#: functional front end produced it (2000 timed records after 2000).
LIVE_DIGESTS = {
    "sjeng-base":
        "658de6d7299bd77dbdfc7dbbc601685c3cea69b598f0d9b65807475e177bff3b",
    "sjeng-pubs":
        "8bb78258a73ccff5d915dac92669ff2b78a384eb48deb8709705d0f5aa5d2cd6",
    "gcc-base":
        "b79c41c315d11f3ac71232d1fd7b6f904a8a03fba5db862e0cb2c94cb2e4907a",
    "gcc-pubs":
        "bdf2d5b76dec8f86cccf1ab9b7f88b19b7ec8374db493b82d75cdd58efac1de9",
    "mcf-base":
        "7128754d6e8b2bdebc790697a8840f7653ab31880d412e37370ecc7371716d59",
    "mcf-pubs":
        "ddf717efbae0081ab4a6334b58ad16a11a01180c9985a0a4bde3430a1f3194e9",
}

#: :func:`~tests.digests.stats_digest` of the live front end's stats after
#: run(800, skip_instructions=600) then run(800) on gcc...
LIVE_RESUME_DIGEST = \
    "7ed0c3b33ff7c25af432074a66404e74d65babc26619e21f06b7cc9f729d8b95"

#: ...and after run(800, skip_instructions=600) twice.
LIVE_RESUME_WITH_SKIP_DIGESTS = {
    "sjeng":
        "ab7e199c030029407d9cb8a5acdf34cb2ce64cf3acce967c1aa4b40268497cdd",
    "astar":
        "6d08998d6008990066bfd844dc3ed4d6b92bd46560e216fc6598d5a37ba72330",
}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return TraceStore(root=tmp_path_factory.mktemp("traces"),
                      persistent=True)


def _run(workload, config, store, instructions=INSTRUCTIONS, skip=SKIP):
    profile = get_profile(workload)
    return simulate(
        build_program(profile), config,
        max_instructions=instructions, skip_instructions=skip,
        mem_seed=profile.mem_seed, trace_source=store)


@pytest.mark.parametrize("workload,tag,config", MATRIX,
                         ids=[f"{w}-{t}" for w, t, _ in MATRIX])
def test_replay_reproduces_live_stats(workload, tag, config, store):
    """record -> serialize -> load -> replay == live, bit for bit: stats
    and every side-structure counter hash to the live front end's."""
    replay = _run(workload, config, store)
    assert result_digest(replay) == LIVE_DIGESTS[f"{workload}-{tag}"]


def test_replay_from_reloaded_store(tmp_path):
    """A trace recorded by one process and loaded by another replays the
    same stats (the serialize -> load leg of the round trip)."""
    config = BASE.with_pubs()
    recorder = TraceStore(root=tmp_path, persistent=True)
    first = _run("sjeng", config, recorder)
    loader = TraceStore(root=tmp_path, persistent=True)
    second = _run("sjeng", config, loader)
    assert loader.captures == 0  # everything came from disk
    assert dataclasses.asdict(second.stats) == dataclasses.asdict(first.stats)


def test_warm_checkpoints_shared_across_configs(store):
    """One capture + one warm training serves a whole config sweep."""
    sweep_store = TraceStore(root=store.root, persistent=False)
    pubs = BASE.pubs.with_overrides(enabled=True)
    for entries in (4, 6, 8):
        cfg = BASE.with_pubs(pubs.with_overrides(priority_entries=entries))
        _run("gobmk", cfg, sweep_store)
    assert sweep_store.captures == 1
    assert sweep_store.warm_trainings == 2   # mem + front, once each
    assert sweep_store.warm_restores == 4    # 2 components x 2 later runs


def test_replay_with_full_verification(store):
    """The differential oracle + invariants hold on a replayed run."""
    config = BASE.with_pubs().with_verification("full", interval=128)
    result = _run("sjeng", config, store)
    assert result.verified_commits == INSTRUCTIONS
    assert result.invariant_sweeps > 0


def test_replay_resume_matches_live(store):
    """run() twice on one pipeline reproduces the live front end.

    (The second run keeps ``skip=0``: skipping with uops in flight would
    release trace records an in-flight branch can still rewind to.)
    """
    from repro.core.pipeline import Pipeline

    profile = get_profile("gcc")
    replay = Pipeline(build_program(profile), BASE,
                      mem_seed=profile.mem_seed, trace_source=store)
    replay.run(800, skip_instructions=600)
    replay.run(800)
    assert stats_digest(replay.stats) == LIVE_RESUME_DIGEST


@pytest.mark.parametrize("workload", ["sjeng", "astar"])
def test_replay_resume_with_skip_matches_live(workload, store):
    """run(n, skip) twice on one pipeline reproduces the live front end.

    The second run's warm span starts where the first run's fetch
    stopped -- the cursor's ``high``; how far the chunked decoder has
    run ahead of fetch must not move it.  (These workloads end the first
    run with no mispredicted branch in flight, so the skip releases
    nothing an in-flight branch can rewind to.)
    """
    from repro.core.pipeline import Pipeline

    profile = get_profile(workload)
    replay = Pipeline(build_program(profile), BASE,
                      mem_seed=profile.mem_seed, trace_source=store)
    replay.run(800, skip_instructions=600)
    replay.run(800, skip_instructions=600)
    assert stats_digest(replay.stats) == LIVE_RESUME_WITH_SKIP_DIGESTS[workload]


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


def test_frontend_mode_validated():
    """Replay is the only front end: naming it is a no-op, and the live
    front end is gone."""
    assert BASE.with_frontend("replay") is BASE
    assert not hasattr(BASE, "frontend_mode")
    with pytest.raises(ValueError, match="live front end was removed"):
        BASE.with_frontend("live")


def test_max_cycles_bounds_the_capture(tmp_path):
    """A cycle-bounded run acquires only what fetch can reach.

    Fetch takes at most ``fetch_width`` correct-path records per cycle,
    so a run bounded to 400 cycles never needs more than ``fetch_width
    * 401`` records past its skip -- however many instructions it asks
    for.  (The store rounds each capture up by up to ``REPLAY_MARGIN``.)
    """
    from repro.core.pipeline import DeadlockError, Pipeline
    from repro.trace.store import REPLAY_MARGIN

    store = TraceStore(root=tmp_path, persistent=False)
    profile = get_profile("sjeng")
    pipe = Pipeline(build_program(profile), BASE.with_pubs(),
                    mem_seed=profile.mem_seed, trace_source=store)
    with pytest.raises(DeadlockError):
        pipe.run(10 ** 9, skip_instructions=500, max_cycles=400)
    assert store.captures == 1
    assert len(pipe.cursor.trace) <= \
        500 + BASE.fetch_width * 401 + 2 * REPLAY_MARGIN
