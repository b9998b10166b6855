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
from repro.trace.store import TraceStore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile
from tests.digests import result_digest

BASE = ProcessorConfig.cortex_a72_like()

#: 3 workloads x {base, pubs}: the round-trip matrix.
MATRIX = [(workload, tag, config)
          for workload in ("sjeng", "gcc", "mcf")
          for tag, config in (("base", BASE), ("pubs", BASE.with_pubs()))]

INSTRUCTIONS = 2000
SKIP = 2000

#: :func:`~tests.digests.result_digest` of each matrix cell (2000 timed
#: records after 2000).  The live functional front end produced these
#: results.  When ``SimStats`` lost the SMT co-runner's counter (always
#: 0 here), the pins were re-derived by hashing the same payload with
#: that key dropped; the full payloads still hashed to the live pins.
LIVE_DIGESTS = {
    "sjeng-base":
        "5f6317deb1c00ebcb9bf8bf9859021353bd8f6c43d7e6c4836bcf90324a8b52d",
    "sjeng-pubs":
        "45b69bb75a1daa17387c74e5234d51480e6c1d3b4ca850a9fca0af6aea8e34c4",
    "gcc-base":
        "db9731010cc009c7ac14e3d46cb56377c5ad715448350546c42c391d6b31b5ec",
    "gcc-pubs":
        "d8405b88f24bf39a367f4592e2defa6a4f08349947166bce158ee10ac621daf5",
    "mcf-base":
        "8797fdd6bc91ffc97b0a303d94c17775f03b1863aa7ae96bb377c2ff538f1539",
    "mcf-pubs":
        "f89b07b9b1b4ca2f823edd5535104c52d0e02137851647d2aec1bd7612dfc0a4",
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


def test_seat_zero_prewarms_only(tmp_path):
    """A run timed from record 0 has no prefix to restore or train: it
    prewarms the LLC and leaves the warm-checkpoint store alone."""
    zero_store = TraceStore(root=tmp_path, persistent=False)
    _run("gobmk", BASE.with_pubs(), zero_store, skip=0)
    assert zero_store.warm_trainings == 0
    assert zero_store.warm_restores == 0


def test_replay_with_full_verification(store):
    """The differential oracle + invariants hold on a replayed run."""
    config = BASE.with_pubs().with_verification("full", interval=128)
    result = _run("sjeng", config, store)
    assert result.verified_commits == INSTRUCTIONS
    assert result.invariant_sweeps > 0


def test_region_decoding_stays_within_acquired_need(store, monkeypatch):
    """A short sampled region reads no further than its acquired need
    (``end`` plus the machine's fetch reach)."""
    from repro.core.pipeline import Pipeline, replay_reach

    furthest = [0]
    real_fetch = Pipeline._fetch

    def fetch(self):
        ran = real_fetch(self)
        furthest[0] = max(furthest[0], self._next_trace_seq - 1)
        return ran

    monkeypatch.setattr(Pipeline, "_fetch", fetch)
    profile = get_profile("gcc")
    start, measure = 6000, 500
    pipe = Pipeline(build_program(profile),
                    BASE.with_region(start, warmup=2000, detail=300),
                    mem_seed=profile.mem_seed, trace_source=store)
    pipe.run(measure)
    assert furthest[0] >= start + measure  # fetch ran ahead of commit
    assert furthest[0] < start + measure + replay_reach(BASE)


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
    for -- plus the machine's fetch reach.
    """
    from repro.core.pipeline import DeadlockError, Pipeline, replay_reach

    store = TraceStore(root=tmp_path, persistent=False)
    profile = get_profile("sjeng")
    pipe = Pipeline(build_program(profile), BASE.with_pubs(),
                    mem_seed=profile.mem_seed, trace_source=store)
    with pytest.raises(DeadlockError):
        pipe.run(10 ** 9, skip_instructions=500, max_cycles=400)
    assert store.captures == 1
    assert len(pipe.trace) <= \
        500 + BASE.fetch_width * 401 + replay_reach(BASE)
