"""Batched multi-config replay: one trace walk, bit-identical members.

The tentpole guarantee of :mod:`repro.batch` (DESIGN.md §12): feeding N
same-warm-class configs from one shared
:class:`~repro.trace.format.Trace` produces *exactly* the results N lone
runs produce -- same ``SimStats``, same side-structure counters, pinned
against the seed goldens -- while acquiring the trace and training warm
state once for the whole batch.
"""

import dataclasses
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batch.replay as batch_replay
from repro.batch import run_batch
from repro.core.config import ProcessorConfig
from repro.core.pipeline import Pipeline
from repro.core.simulator import simulate
from repro.exec import SimJob, batch_signature, execute_unit
from repro.exec.cache import ResultCache
from repro.exec.executor import SweepExecutor
from repro.pubs import PubsConfig
from repro.trace import TraceExhaustedError, capture_trace
from repro.trace.store import TraceStore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile
from tests.test_pipeline_golden import GOLDEN_STATS
from tests.test_pipeline_golden import INSTRUCTIONS as GOLDEN_INSTRUCTIONS
from tests.test_pipeline_golden import SKIP as GOLDEN_SKIP

BASE = ProcessorConfig.cortex_a72_like()
INSTRUCTIONS = 1500
SKIP = 1500


def _pubs(entries, stall=True):
    return BASE.with_pubs(PubsConfig(priority_entries=entries,
                                     stall_policy=stall))


#: Two warm-equivalence families: members differ only in timing knobs,
#: so each family legally shares one batch (base vs PUBS do *not* -- the
#: slice tracker trains differently during warm spans).
FAMILIES = {
    "base": [BASE, BASE.with_age_matrix(),
             BASE.with_overrides(distributed_iq=True)],
    "pubs": [_pubs(4), _pubs(6), _pubs(8, stall=False)],
}

MATRIX = [(workload, family)
          for workload in ("sjeng", "gcc", "mcf")
          for family in sorted(FAMILIES)]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return TraceStore(root=tmp_path_factory.mktemp("batch-traces"),
                      persistent=True)


def _jobs(workload, configs, instructions=INSTRUCTIONS, skip=SKIP):
    profile = get_profile(workload)
    return [SimJob(profile, config, instructions, skip)
            for config in configs]


def _sequential(job, store):
    return simulate(build_program(job.profile), job.config,
                    max_instructions=job.instructions,
                    skip_instructions=job.skip,
                    mem_seed=job.profile.mem_seed, trace_source=store)


def _assert_identical(batched, jobs, store):
    assert len(batched) == len(jobs)
    for job, result in zip(jobs, batched):
        expected = _sequential(job, store)
        assert dataclasses.asdict(result) == dataclasses.asdict(expected)


# ----------------------------------------------------------------------
# Bit-identity with sequential replay
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload,family", MATRIX,
                         ids=[f"{w}-{f}" for w, f in MATRIX])
def test_batch_matches_sequential(workload, family, store):
    """Batch-of-N == N sequential replays, full-result equality."""
    jobs = _jobs(workload, FAMILIES[family])
    _assert_identical(run_batch(jobs, trace_source=store), jobs, store)


def test_batch_matches_sequential_region_partial_warmup(store):
    """Region members with warmup < seat: warm spans trained once."""
    configs = [c.with_region(4000, 1000, 200) for c in FAMILIES["pubs"]]
    jobs = _jobs("sjeng", configs, instructions=400, skip=0)
    _assert_identical(run_batch(jobs, trace_source=store), jobs, store)


def test_batch_matches_sequential_region_full_prefix(store):
    """Full-prefix warmup regions go through the warm-checkpoint path."""
    configs = [c.with_region(4000, 3800, 200) for c in FAMILIES["base"]]
    jobs = _jobs("gcc", configs, instructions=400, skip=0)
    _assert_identical(run_batch(jobs, trace_source=store), jobs, store)


def test_batch_reproduces_seed_goldens(store):
    """Batched members reproduce the pre-optimization golden counters."""
    base = ProcessorConfig.cortex_a72_like()
    pubs_jobs = _jobs("sjeng",
                      [base.with_pubs(),
                       base.with_pubs(PubsConfig(priority_entries=4)),
                       base.with_pubs(PubsConfig(priority_entries=8))],
                      instructions=GOLDEN_INSTRUCTIONS, skip=GOLDEN_SKIP)
    results = run_batch(pubs_jobs, trace_source=store)
    assert dataclasses.asdict(results[0].stats) == GOLDEN_STATS["sjeng_pubs"]
    single = run_batch(_jobs("sjeng", [base],
                             instructions=GOLDEN_INSTRUCTIONS,
                             skip=GOLDEN_SKIP), trace_source=store)
    assert dataclasses.asdict(single[0].stats) == GOLDEN_STATS["sjeng_base"]


def test_verified_member_in_batch(store):
    """A verify_level=full member oracle-checks every commit in-batch."""
    configs = [_pubs(6), _pubs(6).with_verification("full", interval=128),
               _pubs(8)]
    jobs = _jobs("sjeng", configs)
    results = run_batch(jobs, trace_source=store)
    assert results[1].verified_commits == INSTRUCTIONS
    assert results[1].invariant_sweeps > 0
    # Verification observes, never steers: same timing as the unverified
    # twin, and every member still equals its sequential run.
    assert dataclasses.asdict(results[0].stats) \
        == dataclasses.asdict(results[1].stats)
    _assert_identical(results, jobs, store)


@settings(max_examples=6, deadline=None)
@given(perm=st.permutations(range(len(FAMILIES["pubs"]))))
def test_member_order_never_affects_results(store, perm):
    """Property: any batch ordering yields each member's own result."""
    canonical = run_batch(_jobs("sjeng", FAMILIES["pubs"]),
                          trace_source=store)
    permuted = run_batch(
        _jobs("sjeng", [FAMILIES["pubs"][i] for i in perm]),
        trace_source=store)
    for slot, i in enumerate(perm):
        assert dataclasses.asdict(permuted[slot]) \
            == dataclasses.asdict(canonical[i])


def test_later_members_are_built_from_the_snapshot(store, monkeypatch):
    """Only the first member builds a memory hierarchy; the rest are
    constructed around unpickled copies of its warm state."""
    import repro.core.pipeline as pipeline_module
    built = []
    real = pipeline_module.MemoryHierarchy
    monkeypatch.setattr(pipeline_module, "MemoryHierarchy",
                        lambda config: built.append(config) or real(config))
    results = run_batch(_jobs("sjeng", FAMILIES["pubs"]), trace_source=store)
    assert len(results) == 3 and len(built) == 1


# ----------------------------------------------------------------------
# Batch admission rules
# ----------------------------------------------------------------------

def test_mixed_signatures_rejected(store):
    mixed = _jobs("sjeng", [BASE]) + _jobs("mcf", [BASE])
    with pytest.raises(ValueError):
        run_batch(mixed, trace_source=store)
    with pytest.raises(ValueError):
        execute_unit([(str(i), job) for i, job in enumerate(mixed)])


def test_base_and_pubs_never_share_a_batch():
    """PUBS flips warm-time slice training: different equivalence class."""
    sjeng = get_profile("sjeng")
    base_sig = batch_signature(SimJob(sjeng, BASE, INSTRUCTIONS, SKIP))
    pubs_sig = batch_signature(SimJob(sjeng, _pubs(6), INSTRUCTIONS, SKIP))
    assert base_sig != pubs_sig
    # ...while timing-only knobs keep the signature stable.
    assert batch_signature(SimJob(sjeng, _pubs(4), INSTRUCTIONS, SKIP)) \
        == pubs_sig


def test_region_and_skip_are_mutually_exclusive(store):
    config = BASE.with_region(4000, 1000, 200)
    jobs = [SimJob(get_profile("sjeng"), config, 400, 500)]
    with pytest.raises(ValueError):
        run_batch(jobs, trace_source=store)


# ----------------------------------------------------------------------
# Shared trace and warm snapshot mechanics
# ----------------------------------------------------------------------

def test_window_exhaustion_raises(store):
    """A run seated on a trace shorter than ``end + replay_reach`` fails
    loudly in fetch when it reaches the end of the captured stream."""
    profile = get_profile("sjeng")
    program = build_program(profile)
    trace = capture_trace(program, profile.mem_seed, SKIP + INSTRUCTIONS)
    pipeline = Pipeline(program, BASE, mem_seed=profile.mem_seed,
                        trace_source=store)
    pipeline._prepare_replay(INSTRUCTIONS, SKIP, trace)
    with pytest.raises(TraceExhaustedError, match=(
            f"trace exhausted at record {SKIP + INSTRUCTIONS} "
            rf"\(captured {SKIP + INSTRUCTIONS}\)")):
        pipeline.run(INSTRUCTIONS, SKIP)


def _counting_pickle(monkeypatch):
    """Count the warm snapshots run_batch pickles."""
    dumps = []
    monkeypatch.setattr(batch_replay, "pickle", SimpleNamespace(
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL, loads=pickle.loads,
        dumps=lambda obj, **kw: dumps.append(1) or pickle.dumps(obj, **kw)))
    return dumps


def test_batch_of_one_pickles_no_snapshot(store, monkeypatch):
    dumps = _counting_pickle(monkeypatch)
    jobs = _jobs("sjeng", FAMILIES["pubs"][:1])
    _assert_identical(run_batch(jobs, trace_source=store), jobs, store)
    assert dumps == []


def test_batch_pickles_one_snapshot(store, monkeypatch):
    dumps = _counting_pickle(monkeypatch)
    run_batch(_jobs("sjeng", FAMILIES["pubs"]), trace_source=store)
    assert len(dumps) == 1


# ----------------------------------------------------------------------
# Executor integration: grouping, caching, dedup
# ----------------------------------------------------------------------

def test_executor_batches_replay_jobs(tmp_path, monkeypatch):
    from repro.trace.store import reset_shared_stores
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_shared_stores()
    jobs = _jobs("sjeng", FAMILIES["pubs"])
    batched = SweepExecutor(jobs=1, cache=False, batch=8)
    results = batched.run(jobs)
    assert batched.batches_run == 1
    assert batched.batched_jobs == len(jobs)
    sequential = SweepExecutor(jobs=1, cache=False, batch=0).run(jobs)
    for a, b in zip(results, sequential):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_executor_drops_cached_members_from_batch(tmp_path, monkeypatch):
    """A warm member is served from cache; only the misses simulate."""
    from repro.trace.store import reset_shared_stores
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_shared_stores()
    jobs = _jobs("sjeng", FAMILIES["pubs"])
    cache_dir = tmp_path / "results"
    prime = SweepExecutor(jobs=1, cache=ResultCache(cache_dir), batch=8)
    primed = prime.run([jobs[1]])
    assert prime.simulations_run == 1
    warm = SweepExecutor(jobs=1, cache=ResultCache(cache_dir), batch=8)
    results = warm.run(jobs)
    assert warm.cache.stats.hits == 1
    assert warm.simulations_run == len(jobs) - 1
    assert warm.batches_run == 1
    assert warm.batched_jobs == len(jobs) - 1
    assert dataclasses.asdict(results[1]) == dataclasses.asdict(primed[0])
    # The partial batch still matches uncached sequential replay.
    sequential = SweepExecutor(jobs=1, cache=False, batch=0).run(jobs)
    for a, b in zip(results, sequential):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
